"""Composition of verified family sets into larger ones.

The central fact: if S is a set of mutually unbiased Schmidt-rank-k1
bases of C^d (x) C^d' and T one of rank-k2 bases of C^p (x) C^q, then
tensoring elements pairwise gives mutually unbiased rank-(k1 k2) bases of
C^(dp) (x) C^(d'q), one for each aligned pair of input families.  Singular
values and overlaps multiply across the Kronecker product, which is what
makes the count, the rank, and the unbiasedness all survive.
verify._product, which builds a product family from its two factors, is
the package's one Kronecker kernel, and tensor_families its public
pairwise fold.  A product's elements are formed on first read, so
building and certifying one reads only its factors.

run_recipe packages named applications of this rule, called by name with
its parameters as keywords: run_recipe("theorem3", d=2, dprime=3, p=3, q=3).
Each recipe is a tree: a leaf (d, d') stands for the built-in set of that
shape, a node ("T", tree) for its transpose and a pair (left, right) for
tensor_families(left, right).  Every proper subtree is certified before it
is used and the output once more, so a returned set is always a certified
witness.  Kronecker products round differently when re-associated, so each
tree fixes the nesting its saved bytes depend on.

Every built-in set is such a tree.  run_recipe plans its tree once, by
_plan, over irreducible leaves, then evaluates the planned tree: the leaves
are the _LEAVES shapes (1, 1), (2, 2), (3, 3), (2, 3) and every (1, q),
which is mub_composite(q); d > d' plans as the transpose of (d', d), a
composite square as the left-nested pairs of its prime squares in factorize
order.  Any other shape raises UnsupportedParameters naming the missing one,
such as C^5 (x) C^5 for (10, 10), before any leaf is built.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

import numpy as np

from .construct import catalog, factorize, mub_prime, mumeb_qubit
from .errors import UnsupportedParameters, VerificationFailed
from .matspace import _check_count, _check_tol, _require_int
from .verify import BasisFamily, FamilySet, _product, check_museb_set

__all__ = [
    "RECIPE_NAMES",
    "tensor_families",
    "transpose_family",
    "mub_composite",
    "run_recipe",
]


def tensor_families(s: FamilySet, t: FamilySet) -> FamilySet:
    """Tensor two family sets pairwise, first set as the left Kronecker factor.

    Family i of the result collects kron(A, C) for A in s[i] and C in t[i],
    with the index of A varying slowest.  The result has min(len(s), len(t))
    families of Schmidt rank s.k * t.k.
    """
    return FamilySet(tuple(map(_product, s, t)))


def transpose_family(s: FamilySet) -> FamilySet:
    """Transpose every element, swapping the roles of the two subsystems.

    Orthonormality, Schmidt coefficients, and overlap magnitudes are all
    invariant, so the result witnesses the mirrored dimension pair.
    """
    return FamilySet(tuple(
        # copy() lays the transposed elements out afresh in C order, the one copy made
        BasisFamily._taking(fam.dprime, fam.d, fam.k, f"{fam.label}^T" if fam.label else "",
                            fam.elements.transpose(0, 2, 1).copy())
        for fam in s
    ))


def mub_composite(q: int) -> FamilySet:
    """Mutually unbiased bases of C^q by tensoring prime constituents.

    Writing q = prod(p_i ** a_i), basis t of C^q is the left-nested tensor
    product of a_i copies of basis t of C^(p_i) for each factor, in
    increasing prime-power order: min(p_i + 1) bases, fewer than the best
    known count for prime powers but unbiased by the product rule.  They
    keep their factors, so they certify through them and form when read.
    """
    q = _require_int("q", q)
    fact = factorize(q)
    if fact == ((q, 1),):
        return mub_prime(q)
    parts = sorted(fact, key=lambda pa: pa[0] ** pa[1])
    fs = functools.reduce(tensor_families, [mub_prime(p) for p, a in parts for _ in range(a)])
    return FamilySet(tuple(BasisFamily._taking(f.d, f.dprime, f.k, f"mub{q}.t{t}",
                                               factors=f._factors) for t, f in enumerate(fs)))


# a recipe tree, in the grammar of the module docstring
Tree = Any

# irreducible shape -> builder of its set; with (1, q), the leaves _plan plans to
_LEAVES: dict[tuple[int, int], Callable[[], FamilySet]] = {
    # bases of C^1 (x) C^1; every pair is vacuously unbiased at 1/sqrt(1)
    (1, 1): lambda: FamilySet(tuple(
        BasisFamily._taking(1, 1, 1, "triv", np.ones((1, 1, 1), dtype=complex))
        for _ in range(3)
    )),
    (2, 2): mumeb_qubit,
    (3, 3): lambda: FamilySet((catalog("S1"), catalog("S2"), catalog("S3"))),
    (2, 3): lambda: FamilySet((catalog("R1"), catalog("R2"))),
}


def _plan(tree: Tree) -> Tree:
    """tree with each leaf replaced by the tree of its built-in set, refusing a missing shape."""
    if not isinstance(tree[0], int):
        return tuple(sub if sub == "T" else _plan(sub) for sub in tree)
    d, dprime = tree
    if d > dprime:
        return ("T", _plan((dprime, d)))
    if (d, dprime) in _LEAVES or d == 1:
        return (d, dprime)
    if d == dprime and (fact := factorize(d)) != ((d, 1),):
        return functools.reduce(lambda s, t: (s, t),
                                [_plan((p, p)) for p, a in fact for _ in range(a)])
    raise UnsupportedParameters(
        f"no built-in family set for C^{d} (x) C^{dprime}: witnesses for this "
        "shape would need externally cited constructions not built here"
    )


def _certified(fs: FamilySet, what: str, tol: float) -> FamilySet:
    report = check_museb_set(fs, tol)
    if not report.passed:
        raise VerificationFailed(
            f"{what} failed certification with worst violation {report.worst_violation:.3e}"
        )
    return fs


def _build(tree: Tree, tol: float) -> FamilySet:
    """Evaluate a planned recipe tree, certifying every proper subtree before using it."""
    if isinstance(tree[0], int):
        # a planned leaf is a _LEAVES shape or (1, q); any other raises KeyError
        return mub_composite(tree[1]) if tree[0] == 1 and tree not in _LEAVES else _LEAVES[tree]()
    parts = [_certified(_build(sub, tol), f"ingredient {sub}", tol) for sub in tree if sub != "T"]
    return transpose_family(*parts) if tree[0] == "T" else tensor_families(*parts)


# name -> (parameter names, defaults, parameters -> recipe tree)
_RECIPES: dict[str, tuple[tuple[str, ...], dict[str, int], Callable[..., Tree]]] = {
    "theorem3": (("d", "dprime", "p", "q"), {}, lambda d, dprime, p, q: ((d, dprime), (p, q))),
    "corollary1_right": (("d", "dprime", "q"), {}, lambda d, dprime, q: ((d, dprime), (1, q))),
    "corollary1_left": (
        ("d", "dprime", "p"), {}, lambda d, dprime, p: ((d, dprime), ("T", (1, p)))
    ),
    # three maximally entangled witnesses in C^4 (x) C^24 built from
    # qubit frames crossed with small unbiased bases
    "example1": ((), {}, lambda: (((2, 2), (1, 2)), ((2, 2), (1, 3)))),
    # Schmidt-rank-3 witnesses in C^6 (x) C^6 of the literal form
    # kron(t^T, kron(s, t)) with s from the square rank-3 set and t qubit-sided
    "example3": ((), {}, lambda: (("T", (1, 2)), ((3, 3), (1, 2)))),
    "cor21k_mumeb": (("d", "q"), {"d": 1, "q": 1}, lambda d, q: (((2, 3), (d, d)), (1, q))),
    "cor21k_seb2": (("k",), {"k": 2}, lambda k: (("T", (2, 3)), (1, k))),
    "m69": ((), {}, lambda: ((2, 3), (3, 3))),
}

RECIPE_NAMES = tuple(_RECIPES)


def run_recipe(name: str, /, tol: float = 1e-9, **parameters: int) -> FamilySet:
    """Assemble a named composition and certify it before returning.

    Raises ValueError unless the recipe gets each of its parameters, and no
    other, as a positive Python or numpy integer (never a bool);
    UnsupportedParameters when it would need an ingredient this package does
    not build; VerificationFailed if an assembled set does not certify at
    tol, which at the default tol is a bug, not bad input.
    """
    _check_tol(tol)
    try:
        names, defaults, recipe = _RECIPES[name]
    except KeyError:
        raise ValueError(
            f"unknown recipe {name!r}; known recipes: {', '.join(RECIPE_NAMES)}"
        ) from None
    params = {**defaults, **parameters}
    if extra := [n for n in params if n not in names]:
        raise ValueError(f"recipe {name!r} does not take parameters {extra}")
    if missing := [n for n in names if n not in params]:
        raise ValueError(f"recipe {name!r} is missing parameters {missing}")
    for n in names:
        _check_count(n, params[n], 1)
    # a missing shape is refused while planning, before any leaf is built
    tree = _plan(recipe(*(int(params[n]) for n in names)))
    return _certified(_build(tree, tol), f"recipe {name!r} output", tol)
