"""Command line front end.

Subcommands: generate, verify, compose, trio, search.  Exit codes follow
one convention everywhere: 0 for success (including "obstruction found"),
1 for a verified negative outcome, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import compose, construct, familyfile, search, trio
from .errors import MusebError
from .matspace import is_unitary
from .verify import BasisFamily, FamilySet, VerifyConfig, check_museb_set


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="certification tolerance")
    parser.add_argument("--out", default=None, help="write output to this path")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized modes")


def _emit_family_set(fs: FamilySet, out: str | None) -> None:
    if out:
        familyfile.save_family_set(fs, out)
        print(f"wrote {out}")
    else:
        print(json.dumps(familyfile.family_set_to_dict(fs)))


def _emit_matrix(mat: np.ndarray, out: str | None) -> None:
    if out:
        familyfile.save_matrix(mat, out)
        print(f"wrote {out}")
    else:
        print(familyfile.dumps_matrix(mat))


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = args.generator
    if kind == "weyl":
        fs = FamilySet((construct.weyl_meb(args.d, args.dprime),))
    elif kind == "c23":
        theta3 = args.theta3
        if theta3 is None:
            theta3 = construct.solve_theta(args.theta1, args.theta2)
        phi, psi = construct.c23_partner(
            construct.ThetaParams(args.theta1, args.theta2, theta3), tol=args.tol
        )
        fs = FamilySet((phi, psi))
    elif kind == "mub":
        fs = construct.mub_prime(args.p)
    elif kind == "mumeb-qubit":
        fs = construct.mumeb_qubit()
    elif kind == "catalog":
        obj = construct.catalog(args.name)
        if isinstance(obj, np.ndarray):
            _emit_matrix(obj, args.out)
            return 0
        if isinstance(obj, BasisFamily):
            obj = FamilySet((obj,))
        _emit_family_set(obj, args.out)
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown generator {kind!r}")
    _emit_family_set(fs, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    fs = familyfile.load_family_set(args.path)
    if args.k is not None:
        fams = tuple(
            BasisFamily(d=f.d, dprime=f.dprime, k=args.k, elements=f.elements, label=f.label)
            for f in fs
        )
        fs = FamilySet(fams)
    cfg = VerifyConfig(tol_abs=args.tol, tol_overlap=args.tol)
    report = check_museb_set(fs, cfg)
    print(f"witness_count: {fs.witness_count}")
    print(f"dims: {fs.d} x {fs.dprime}, k={fs.k}")
    print(f"checks_run: {report.checks_run}")
    print(f"worst_violation: {report.worst_violation:.6e}")
    for fi, fj, i, j, val in report.offenders:
        print(f"offender: families ({fi},{fj}) elements ({i},{j}) measured {val:.9f}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_compose(args: argparse.Namespace) -> int:
    cfg = VerifyConfig(tol_abs=args.tol, tol_overlap=args.tol)
    if args.recipe == "tensor":
        if len(args.inputs) != 2:
            raise ValueError("compose tensor needs exactly two input files")
        left = familyfile.load_family_set(args.inputs[0])
        right = familyfile.load_family_set(args.inputs[1])
        for name, fs in (("left", left), ("right", right)):
            rep = check_museb_set(fs, cfg)
            if not rep.passed:
                print(f"{name} input failed certification "
                      f"(worst violation {rep.worst_violation:.3e})", file=sys.stderr)
                return 1
        result = compose.tensor_families(left, right)
        rep = check_museb_set(result, cfg)
        if not rep.passed:
            print(f"composed set failed certification "
                  f"(worst violation {rep.worst_violation:.3e})", file=sys.stderr)
            return 1
    else:
        if args.inputs:
            raise ValueError(f"recipe {args.recipe!r} takes parameters, not input files")
        params = {}
        for key in ("d", "dprime", "p", "q", "k"):
            val = getattr(args, f"param_{key}")
            if val is not None:
                params[key] = val
        result = compose.run_recipe(compose.RecipeSpec(args.recipe, params), cfg)
    _emit_family_set(result, args.out)
    return 0


def _cmd_trio(args: argparse.Namespace) -> int:
    cfg = VerifyConfig(tol_abs=args.tol, tol_overlap=args.tol)
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
            if not is_unitary(mat, cfg):
                raise MusebError(f"{name} input matrix is not unitary")
        w = u.conj().T @ v
    else:
        raise ValueError("trio needs --builtin, one matrix file, or two basis files")

    chm = trio.is_chm(w, cfg)
    print(f"is_chm: {'true' if chm else 'false'}")
    if not chm:
        print("input does not define a mutually unbiased pair with flat overlaps",
              file=sys.stderr)
        return 2
    finding = trio.dephased_obstruction(w, cfg)
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


def _cmd_search(args: argparse.Namespace) -> int:
    if args.mode == "third-basis":
        cfg = search.SearchConfig(
            seed=args.seed,
            max_iterations=args.iterations,
            step_scale=args.step,
            restarts=args.restarts,
        )
        outcome = search.third_basis_search(cfg)
        print(f"best_cost: {outcome.best_cost!r}")
        print(f"iterations_used: {outcome.iterations_used}")
        print(f"converged_to_zero: {'true' if outcome.converged_to_zero else 'false'}")
        flat = ",".join(f"{z.real:+.12e}{z.imag:+.12e}j" for z in outcome.best_candidate.reshape(-1))
        print(f"best_candidate: {flat}")
        return 0
    if args.mode == "closure":
        sweep = search.closure_sweep(args.pairs, seed=args.seed, tol=args.tol)
        print(f"closure failures: {sweep.failures}/{sweep.pairs}")
        return 0
    raise ValueError(f"unknown search mode {args.mode!r}")  # pragma: no cover


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="museb",
        description="Construct, compose, certify, and probe mutually unbiased "
        "entangled bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a family set or catalog object")
    gensub = gen.add_subparsers(dest="generator", required=True)

    g_weyl = gensub.add_parser("weyl", help="shift-phase entangled basis")
    g_weyl.add_argument("d", type=int)
    g_weyl.add_argument("dprime", type=int)
    _common_flags(g_weyl)

    g_c23 = gensub.add_parser("c23", help="the (2,3) mutually unbiased pair")
    g_c23.add_argument("theta1", type=float)
    g_c23.add_argument("theta2", type=float)
    g_c23.add_argument("theta3", type=float, nargs="?", default=None)
    _common_flags(g_c23)

    g_mub = gensub.add_parser("mub", help="p+1 unbiased bases for prime p")
    g_mub.add_argument("p", type=int)
    _common_flags(g_mub)

    g_cat = gensub.add_parser("catalog", help="frozen reference object by name")
    g_cat.add_argument("name", choices=list(construct.CATALOG_NAMES))
    _common_flags(g_cat)

    g_mq = gensub.add_parser("mumeb-qubit", help="three qubit-pair entangled bases")
    _common_flags(g_mq)

    ver = sub.add_parser("verify", help="certify a stored family set")
    ver.add_argument("path")
    ver.add_argument("--k", type=int, default=None, help="override the claimed Schmidt rank")
    _common_flags(ver)

    comp = sub.add_parser("compose", help="run a composition recipe")
    comp.add_argument("recipe", choices=list(compose.RECIPE_NAMES) + ["tensor"])
    comp.add_argument("inputs", nargs="*", help="input files for the tensor recipe")
    comp.add_argument("--d", dest="param_d", type=int, default=None)
    comp.add_argument("--dprime", dest="param_dprime", type=int, default=None)
    comp.add_argument("--p", dest="param_p", type=int, default=None)
    comp.add_argument("--q", dest="param_q", type=int, default=None)
    comp.add_argument("--k", dest="param_k", type=int, default=None)
    _common_flags(comp)

    tri = sub.add_parser("trio", help="scan for a third-basis obstruction")
    tri.add_argument("paths", nargs="*", help="one Hadamard file, or two basis files")
    tri.add_argument("--builtin", action="store_true", help="use the frozen U, V pair")
    _common_flags(tri)

    sea = sub.add_parser("search", help="numerical probes")
    sea.add_argument("mode", choices=["third-basis", "closure"])
    sea.add_argument("--iterations", type=int, default=300)
    sea.add_argument("--restarts", type=int, default=4)
    sea.add_argument("--step", type=float, default=0.25)
    sea.add_argument("--pairs", type=int, default=1000)
    _common_flags(sea)

    parser.set_defaults(func=None)
    gen.set_defaults(func=_cmd_generate)
    ver.set_defaults(func=_cmd_verify)
    comp.set_defaults(func=_cmd_compose)
    tri.set_defaults(func=_cmd_trio)
    sea.set_defaults(func=_cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
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
