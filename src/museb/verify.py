"""Certification of entangled bases and mutual unbiasedness.

A basis family is a full orthonormal basis of C^d (x) C^d' whose members
all have Schmidt number k with equal Schmidt coefficients 1/sqrt(k); in
matrix form each element has k singular values equal to 1/sqrt(k) and the
rest zero.  Two such bases are mutually unbiased when every cross overlap
has magnitude 1/sqrt(d d').  The checks below certify these properties to
explicit tolerances and report the worst violation seen, so a failed check
is as informative as a passed one.  A family built by tensor_families holds
its two factors and forms its elements on first read.  It is certified
through its factors: its overlap moduli are products of theirs and so are
its singular values.  Each stage reads only the extremes of the factors'
values, so a passed check forms no product-sized array; a failed stage
forms the product's values once to list its offenders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, ShapeMismatch
from .matspace import (
    _check_tol, _require_int, as_matrix, singular_values, stacked_singular_values,
)

__all__ = [
    "MAX_OFFENDERS",
    "VerificationReport",
    "BasisFamily",
    "FamilySet",
    "schmidt_number",
    "check_sebk",
    "check_mu_pair",
    "check_museb_set",
]

# offender lists are capped so reports stay readable on large sets
MAX_OFFENDERS = 32


# (family_i, family_j, i, j, measured value): i is the element index; j is
# the element index in Gram and pair stages and the singular-value index in
# the spectrum stage; theorem2_reproduce stores its stage index in both
Offender = tuple[int, int, int, int, float]


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    worst_violation: float
    offenders: tuple[Offender, ...]
    checks_run: int


@dataclass(frozen=True)
class BasisFamily:
    """An orthonormal basis of C^d (x) C^d' in matrix form.

    elements is a (d*d', d, d') complex array; element i is the matrix of
    the i-th basis state.  k declares the intended Schmidt number; it is a
    claim checked by check_sebk, not enforced at construction.  The header
    is what a museb-1 file can hold: d, d' and k are stored as plain ints
    and the label must be a str.
    """

    d: int
    dprime: int
    k: int
    elements: np.ndarray
    label: str = ""
    # (left, right) when _product made this family from these two factors; set
    # only there, so a rebuilt or replaced family has none
    _factors: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._adopt(np.array(self.elements, dtype=complex, order="C"))

    def __getattr__(self, name: str):
        # reached only while a product's elements are unformed: form them from
        # its factors once, after which the cached array is a plain attribute
        factors = self.__dict__.get("_factors")
        if name != "elements" or not factors:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        prod = np.einsum("aij,bkl->abikjl", factors[0].elements, factors[1].elements)
        self._adopt(prod.reshape(len(self), self.d, self.dprime))
        return self.elements

    @classmethod
    def _taking(cls, d: int, dprime: int, k: int, label: str,
                elements: np.ndarray | None = None, factors: tuple = ()) -> BasisFamily:
        """A family with this header, built without __post_init__'s copy.

        It takes elements, a fresh complex C-ordered array, after _adopt's
        checks; a product passes its factors instead and forms them on first read.
        """
        fam = object.__new__(cls)
        for name, value in (("d", d), ("dprime", dprime), ("k", k), ("label", label),
                            ("_factors", factors)):
            object.__setattr__(fam, name, value)
        if elements is not None:
            fam._adopt(elements)
        return fam

    def _adopt(self, arr: np.ndarray) -> None:
        """Check the header and take arr, a complex C-ordered array, as the elements."""
        for name in ("d", "dprime", "k"):
            object.__setattr__(self, name, _require_int(name, getattr(self, name)))
        if not isinstance(self.label, str):
            raise TypeError(f"label must be a str, got {type(self.label).__name__}")
        if self.d < 1 or self.dprime < 1:
            raise ValueError("dimensions must be positive")
        if not 1 <= self.k <= min(self.d, self.dprime):
            raise ValueError(
                f"k must sit in [1, {min(self.d, self.dprime)}], got {self.k}"
            )
        want = (self.d * self.dprime, self.d, self.dprime)
        if arr.shape != want:
            raise ShapeMismatch(f"expected elements of shape {want}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("elements must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    def __eq__(self, other) -> bool:
        # by value: the header and the elements' entries, never the factors
        if not isinstance(other, BasisFamily):
            return NotImplemented
        return ((self.d, self.dprime, self.k, self.label)
                == (other.d, other.dprime, other.k, other.label)
                and np.array_equal(self.elements, other.elements))

    def __repr__(self) -> str:
        # an unformed product shows its factors, so a repr never forms the array
        elements = self.__dict__.get("elements")
        shown = repr(elements) if elements is not None else f"_product{self._factors!r}"
        return (f"BasisFamily(d={self.d!r}, dprime={self.dprime!r}, k={self.k!r}, "
                f"elements={shown}, label={self.label!r})")

    def __len__(self) -> int:
        return self.d * self.dprime

    def __getitem__(self, i: int) -> np.ndarray:
        return self.elements[i]


@dataclass(frozen=True)
class FamilySet:
    """A collection of basis families sharing the same (d, d', k), never empty.

    An empty set has no shape and certifies nothing, so construction raises EmptyInput.
    """

    families: tuple[BasisFamily, ...]

    def __post_init__(self) -> None:
        fams = tuple(self.families)
        if not fams:
            raise EmptyInput("family set is empty")
        for fam in fams:
            if not isinstance(fam, BasisFamily):
                raise TypeError(
                    f"a family set holds BasisFamily members, got {type(fam).__name__}"
                )
        sigs = {(f.d, f.dprime, f.k) for f in fams}
        if len(sigs) > 1:
            raise ShapeMismatch(f"families disagree on (d, d', k): {sorted(sigs)}")
        object.__setattr__(self, "families", fams)

    @property
    def d(self) -> int:
        return self.families[0].d

    @property
    def dprime(self) -> int:
        return self.families[0].dprime

    @property
    def k(self) -> int:
        return self.families[0].k

    def __len__(self) -> int:
        return len(self.families)

    def __getitem__(self, i: int) -> BasisFamily:
        return self.families[i]

    def __iter__(self):
        return iter(self.families)


def _product(left: BasisFamily, right: BasisFamily) -> BasisFamily:
    """The family of kron(left[a], right[b]) at index a * len(right) + b.

    The package's one Kronecker layout, which _magnitudes, _self and _spectrum read back;
    BasisFamily.__getattr__ forms its elements, the einsum aij,bkl->abikjl, on first read.
    The label is "a*b", or whichever is non-empty.
    """
    return BasisFamily._taking(left.d * right.d, left.dprime * right.dprime, left.k * right.k,
                               "*".join(filter(None, (left.label, right.label))),
                               factors=(left, right))


def _like(f: BasisFamily, g: BasisFamily) -> tuple:
    """The factor pairs of f and g when both are products of like factors, else ()."""
    pairs = tuple(zip(f._factors, g._factors))
    return pairs if all((a.d, a.dprime) == (b.d, b.dprime) for a, b in pairs) else ()


def _magnitudes(f: BasisFamily, g: BasisFamily) -> np.ndarray:
    """|Tr(f[a]^dagger g[b])| for all a, b; for products of like factors, the kron of theirs."""
    if pairs := _like(f, g):
        return np.kron(*(_magnitudes(a, b) for a, b in pairs))
    return np.abs(_overlap_gram(f.elements, g.elements))


def _extremes(f: BasisFamily, g: BasisFamily) -> tuple:
    """(min, max) of _magnitudes(f, g), exactly: rounded products of non-negative doubles
    are monotone, so a product's are the products of its factors' extremes."""
    if pairs := _like(f, g):
        (lo_a, hi_a), (lo_b, hi_b) = (_extremes(a, b) for a, b in pairs)
        return lo_a * lo_b, hi_a * hi_b
    mags = _magnitudes(f, g)
    return mags.min(), mags.max()


def _self(f: BasisFamily) -> tuple:
    """Tr(f[a]^dagger f[a]) per a, and the max of _magnitudes(f, f) off and on the diagonal."""
    if f._factors:
        (diag_a, off_a, on_a), (diag_b, off_b, on_b) = map(_self, f._factors)
        # np.maximum keeps a NaN, where max() may drop it
        off = np.maximum(off_a * np.maximum(off_b, on_b), on_a * off_b)
        return np.outer(diag_a, diag_b).ravel(), off, on_a * on_b
    gram = _overlap_gram(f.elements, f.elements)
    mags = np.abs(gram)
    on = mags.diagonal().max()
    np.fill_diagonal(mags, 0.0)
    return gram.diagonal().copy(), mags.max(), on


def _spectrum(f: BasisFamily, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each element's singular values, descending, for a product whose factors' are a and
    b: the factors' products, sorted."""
    sv = np.zeros((len(f), min(f.d, f.dprime)))
    prods = (a[:, None, :, None] * b[None, :, None, :]).reshape(len(f), -1)
    sv[:, : prods.shape[1]] = np.sort(prods, axis=1)[:, ::-1]
    return sv


def _sv_bounds(f: BasisFamily) -> tuple:
    """(min, max) of the k leading singular values of each element and the max of the rest
    (0.0 if none), exactly, and a function returning every element's singular values,
    descending.  A product's are its factors' products when its least leading product is
    at least its greatest tail product, since then the sort keeps every leading product
    ahead of every tail product; otherwise, and for a NaN, the sort's.  Each leaf is
    decomposed once, here, and each product sorted at most once, here or by the function."""
    if f._factors:
        (lo_a, hi_a, t_a, sv_a), (lo_b, hi_b, t_b, sv_b) = map(_sv_bounds, f._factors)
        lo, tail = lo_a * lo_b, np.maximum(hi_a * t_b, t_a * hi_b)
        if lo >= tail:  # np.maximum keeps a NaN, which fails this test
            return lo, hi_a * hi_b, tail, lambda: _spectrum(f, sv_a(), sv_b())
        sv = _spectrum(f, sv_a(), sv_b())
    else:
        sv = stacked_singular_values(f.elements)
    return sv[:, : f.k].min(), sv[:, : f.k].max(), sv[:, f.k:].max(initial=0.0), lambda: sv


def _overlap_gram(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """All Hilbert-Schmidt inner products Tr(e[a]^dagger f[b]) as one ZGEMM.

    Each stack of matrices is flattened to one row per element, so the Gram
    is a single BLAS matrix product costing 8 n m d d' real flops.
    """
    n, m = e.shape[0], f.shape[0]
    return e.reshape(n, -1).conj() @ f.reshape(m, -1).T


def schmidt_number(a, tol: float = 1e-9) -> int:
    """Number of singular values above tol (the rank of the matrix)."""
    _check_tol(tol)
    sv = singular_values(as_matrix(a))
    return int(np.count_nonzero(sv > tol))


def _stage(worst, measure, deviation, tol: float, checks: int, pair: tuple) -> VerificationReport:
    """One stage: if worst fails, the entries of measure() whose deviation exceeds
    tol offend, in row-major order, capped."""
    worst = float(worst)
    if worst <= tol:  # a passed stage has no offenders; a NaN worst fails here
        return VerificationReport(True, worst, (), checks)
    measured = measure()
    offenders = tuple(
        (*pair, int(i), int(j), float(np.abs(measured[i, j])))
        for i, j in np.argwhere(deviation(measured) > tol)[:MAX_OFFENDERS]
    )
    return VerificationReport(False, worst, offenders, checks)


def _merge(parts: list[tuple[int, int, VerificationReport]]) -> VerificationReport:
    """Combine (fi, fj, report) stages in order, relabelling offenders (fi, fj), capped."""
    relabelled = ((fi, fj, *off[2:]) for fi, fj, rep in parts for off in rep.offenders)
    return VerificationReport(
        passed=all(rep.passed for _, _, rep in parts),
        # np.max keeps a NaN stage worst wherever it sits, where max() may drop it
        worst_violation=float(np.max([rep.worst_violation for _, _, rep in parts])),
        offenders=tuple(itertools.islice(relabelled, MAX_OFFENDERS)),
        checks_run=sum(rep.checks_run for _, _, rep in parts),
    )


def check_sebk(family: BasisFamily, tol: float = 1e-9) -> VerificationReport:
    """Certify that a family is an orthonormal basis of uniform Schmidt rank.

    Every element must have singular spectrum (1/sqrt(k), ..., 1/sqrt(k),
    0, ..., 0) with k repetitions, and the mutual Gram matrix of the
    family must be the identity, both within tol.
    """
    _check_tol(tol)
    n = len(family)
    c = 1.0 / np.sqrt(family.k)
    lo, hi, tail, spectrum_of = _sv_bounds(family)

    def one_per_element(sv):
        # one offender per element: its worst singular value
        cols = np.arange(sv.shape[1])
        sv_dev = np.abs(sv - np.where(cols < family.k, c, 0.0))
        return np.where(cols == sv_dev.argmax(axis=1)[:, None], sv_dev, 0.0)

    # fl(s - c) is monotone in s, so the worst deviation sits at an extreme; np.max keeps a NaN
    spectrum = _stage(np.max([abs(lo - c), abs(hi - c), tail]),
                      spectrum_of, one_per_element, tol, n, (0, 0))

    diag, off, _ = _self(family)
    diag_dev = np.abs(diag - 1)
    orthonormality = _stage(np.maximum(off, diag_dev.max()), lambda: _magnitudes(family, family),
                            lambda mags: np.where(np.eye(n, dtype=bool), diag_dev, mags),
                            tol, n * n, (0, 0))
    return _merge([(0, 0, spectrum), (0, 0, orthonormality)])


def check_mu_pair(
    f: BasisFamily, g: BasisFamily, tol: float = 1e-9
) -> VerificationReport:
    """Certify that every cross overlap has magnitude 1/sqrt(d d') within tol."""
    _check_tol(tol)
    if (f.d, f.dprime) != (g.d, g.dprime):
        raise ShapeMismatch(
            f"cannot compare bases of ({f.d}, {f.dprime}) with ({g.d}, {g.dprime})"
        )
    target = 1.0 / np.sqrt(f.d * f.dprime)
    lo, hi = _extremes(f, g)
    # fl(m - target) is monotone in m, so the worst deviation sits at an extreme
    return _stage(np.maximum(abs(lo - target), abs(hi - target)), lambda: _magnitudes(f, g),
                  lambda mags: np.abs(mags - target), tol, len(f) * len(f), (0, 1))


def check_museb_set(s: FamilySet, tol: float = 1e-9) -> VerificationReport:
    """Certify a whole family set: each basis individually, and all pairs.

    For d = d' = 1 and k = 1 this reduces to the ordinary mutually
    unbiased bases condition on C^n written one column at a time.  A
    FamilySet is never empty, so every verdict covers at least one basis.
    """
    _check_tol(tol)
    fams = s.families
    parts = [(fi, fi, check_sebk(fam, tol)) for fi, fam in enumerate(fams)]
    parts += [(fi, fj, check_mu_pair(fams[fi], fams[fj], tol))
              for fi, fj in itertools.combinations(range(len(fams)), 2)]
    return _merge(parts)
