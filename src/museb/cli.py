"""Command line front end.

Subcommands: generate, verify, compose, trio, search.  Exit codes follow
one convention everywhere: 0 for success (including "obstruction found"),
1 for a verified negative outcome, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import compose, construct, familyfile, search, trio
from .errors import MusebError, VerificationFailed
from .matspace import is_unitary
from .verify import BasisFamily, FamilySet, check_museb_set

# every recipe parameter name, in first-use order, each one a compose flag
_RECIPE_PARAMETERS = tuple(dict.fromkeys(n for names, _, _ in compose._RECIPES.values()
                                         for n in names))


def _emit_family_set(fs: FamilySet, out: str | None) -> None:
    if out:
        familyfile.save_family_set(fs, out)
        print(f"wrote {out}")
    else:
        familyfile._write_family_set(fs, sys.stdout)


def _emit_matrix(mat: np.ndarray, out: str | None) -> None:
    if out:
        familyfile.save_matrix(mat, out)
        print(f"wrote {out}")
    else:
        print(familyfile.dumps_matrix(mat))


def _c23_pair(args: argparse.Namespace) -> FamilySet:
    theta3 = args.theta3
    if theta3 is None:
        theta3 = construct.solve_theta(args.theta1, args.theta2)
    theta = construct.ThetaParams(args.theta1, args.theta2, theta3)
    return FamilySet(construct.c23_partner(theta, tol=args.tol))


def _cmd_generate(args: argparse.Namespace) -> int:
    # each generate leaf sets its own builder; a catalog entry may be a plain matrix
    obj = args.build(args)
    if isinstance(obj, np.ndarray):
        _emit_matrix(obj, args.out)
    else:
        _emit_family_set(FamilySet((obj,)) if isinstance(obj, BasisFamily) else obj, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    fs = familyfile.load_family_set(args.path)
    if args.k is not None:
        fs = FamilySet(tuple(BasisFamily._taking(f.d, f.dprime, args.k, f.label, f.elements)
                              for f in fs))
    report = check_museb_set(fs, args.tol)
    print(f"witness_count: {len(fs)}")
    print(f"dims: {fs.d} x {fs.dprime}, k={fs.k}")
    print(f"checks_run: {report.checks_run}")
    print(f"worst_violation: {report.worst_violation:.6e}")
    for fi, fj, i, j, val in report.offenders:
        print(f"offender: families ({fi},{fj}) elements ({i},{j}) measured {val:.9f}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_compose(args: argparse.Namespace) -> int:
    params = {key: v for key in _RECIPE_PARAMETERS if (v := getattr(args, key)) is not None}
    if args.recipe != "tensor":
        if args.inputs:
            raise ValueError(f"recipe {args.recipe!r} takes parameters, not input files")
        result = compose.run_recipe(args.recipe, args.tol, **params)
    else:
        if len(args.inputs) != 2:
            raise ValueError("compose tensor needs exactly two input files")
        if params:
            raise ValueError(f"compose tensor takes input files, not parameters {list(params)}")
        left, right = (familyfile.load_family_set(path) for path in args.inputs)
        try:
            left = compose._certified(left, "left input", args.tol)
            right = compose._certified(right, "right input", args.tol)
            product = compose.tensor_families(left, right)
            result = compose._certified(product, "composed set", args.tol)
        except VerificationFailed as exc:
            print(exc, file=sys.stderr)
            return 1
    _emit_family_set(result, args.out)
    return 0


def _cmd_trio(args: argparse.Namespace) -> int:
    if args.builtin:
        if args.paths:
            raise ValueError("--builtin takes no input files")
        w = construct.catalog("U").conj().T @ construct.catalog("V")
    elif len(args.paths) == 1:
        w = familyfile.load_matrix(args.paths[0])
    elif len(args.paths) == 2:
        u = familyfile.load_matrix(args.paths[0])
        v = familyfile.load_matrix(args.paths[1])
        for name, mat in (("first", u), ("second", v)):
            if not is_unitary(mat, args.tol):
                raise MusebError(f"{name} input matrix is not unitary")
        w = u.conj().T @ v
    else:
        raise ValueError("trio needs --builtin, one matrix file, or two basis files")

    chm = trio.is_chm(w, args.tol)
    print(f"is_chm: {'true' if chm else 'false'}")
    if not chm:
        print("input does not define a mutually unbiased pair with flat overlaps",
              file=sys.stderr)
        return 2
    finding = trio.dephased_obstruction(w, args.tol)
    print(f"obstructed: {'true' if finding.obstructed else 'false'}")
    if finding.obstructed:
        print(f"on_transpose: {'true' if finding.on_transpose else 'false'}")
        print(f"row_pair: {finding.row_pair[0]},{finding.row_pair[1]}")
        print("columns: " + ",".join(str(c) for c in finding.columns))
        print("phases: " + ",".join(f"{p.real:+.12f}{p.imag:+.12f}j" for p in finding.phases))
        rp = finding.row_phase
        print(f"row_phase: {rp.real:+.12f}{rp.imag:+.12f}j")
        return 0
    return 1


def _cmd_third_basis(args: argparse.Namespace) -> int:
    cfg = search.SearchConfig(seed=args.seed, max_iterations=args.iterations,
                              restarts=args.restarts)
    outcome = search.third_basis_search(cfg)
    print(f"best_cost: {outcome.best_cost!r}")
    print(f"iterations_used: {outcome.iterations_used}")
    print(f"converged_to_zero: {'true' if outcome.converged_to_zero else 'false'}")
    flat = ",".join(f"{z.real:+.12e}{z.imag:+.12e}j" for z in outcome.best_candidate.reshape(-1))
    print(f"best_candidate: {flat}")
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    sweep = search.closure_sweep(args.pairs, seed=args.seed, tol=args.tol)
    print(f"closure failures: {sweep.failures}/{sweep.pairs}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # one-flag parent parsers: each leaf takes only the flags its handler reads
    tol, out, seed = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    tol.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance")
    out.add_argument("--out", default=None, help="write output to this path")
    seed.add_argument("--seed", type=int, default=0, help="seed for the random draws")
    parser = argparse.ArgumentParser(
        prog="museb",
        description="Construct, compose, certify, and probe mutually unbiased "
        "entangled bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a family set or catalog object")
    gen.set_defaults(func=_cmd_generate)
    gensub = gen.add_subparsers(dest="generator", required=True)

    g_weyl = gensub.add_parser("weyl", parents=[out], help="shift-phase entangled basis")
    g_weyl.set_defaults(build=lambda args: construct.weyl_meb(args.d, args.dprime))
    g_weyl.add_argument("d", type=int)
    g_weyl.add_argument("dprime", type=int)

    g_c23 = gensub.add_parser("c23", parents=[tol, out], help="the (2,3) mutually unbiased pair")
    g_c23.set_defaults(build=_c23_pair)
    g_c23.add_argument("theta1", type=float)
    g_c23.add_argument("theta2", type=float)
    g_c23.add_argument("theta3", type=float, nargs="?", default=None)

    g_mub = gensub.add_parser("mub", parents=[out], help="p+1 unbiased bases for prime p")
    g_mub.set_defaults(build=lambda args: construct.mub_prime(args.p))
    g_mub.add_argument("p", type=int)

    g_cat = gensub.add_parser("catalog", parents=[out], help="frozen reference object by name")
    g_cat.set_defaults(build=lambda args: construct.catalog(args.name))
    g_cat.add_argument("name", choices=list(construct.CATALOG_NAMES))

    g_qubit = gensub.add_parser("mumeb-qubit", parents=[out],
                                help="three qubit-pair entangled bases")
    g_qubit.set_defaults(build=lambda args: construct.mumeb_qubit())

    ver = sub.add_parser("verify", parents=[tol], help="certify a stored family set")
    ver.set_defaults(func=_cmd_verify)
    ver.add_argument("path")
    ver.add_argument("--k", type=int, default=None, help="override the claimed Schmidt rank")

    comp = sub.add_parser("compose", parents=[tol, out], help="run a composition recipe")
    comp.set_defaults(func=_cmd_compose)
    comp.add_argument("recipe", choices=list(compose.RECIPE_NAMES) + ["tensor"])
    comp.add_argument("inputs", nargs="*", help="input files for the tensor recipe")
    for key in _RECIPE_PARAMETERS:
        comp.add_argument(f"--{key}", type=int, default=None, help="recipe parameter")

    tri = sub.add_parser("trio", parents=[tol], help="scan for a third-basis obstruction")
    tri.set_defaults(func=_cmd_trio)
    tri.add_argument("paths", nargs="*", help="one Hadamard file, or two basis files")
    tri.add_argument("--builtin", action="store_true", help="use the frozen U, V pair")

    sea = sub.add_parser("search", help="numerical probes: third-basis or closure")
    seasub = sea.add_subparsers(dest="mode", required=True)

    s_tb = seasub.add_parser("third-basis", parents=[seed], help="seeded third-basis descent")
    s_tb.set_defaults(func=_cmd_third_basis)
    s_tb.add_argument("--iterations", type=int, default=300)
    s_tb.add_argument("--restarts", type=int, default=4)

    s_cl = seasub.add_parser("closure", parents=[tol, seed], help="sample mixer products")
    s_cl.set_defaults(func=_cmd_closure)
    s_cl.add_argument("--pairs", type=int, default=1000)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # search flags may stand before the mode; argparse wants the mode first
    modes = [i for i, arg in enumerate(argv) if arg in ("third-basis", "closure")]
    if argv[:1] == ["search"] and modes:
        argv.insert(1, argv.pop(modes[0]))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MusebError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
