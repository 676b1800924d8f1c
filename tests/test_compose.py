import functools
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from museb import (
    BasisFamily,
    EmptyInput,
    FamilySet,
    UnsupportedParameters,
    VerificationFailed,
    catalog,
    check_museb_set,
    check_sebk,
    factorize,
    hs_inner,
    is_prime,
    mub_composite,
    mub_prime,
    mumeb_qubit,
    run_recipe,
    singular_values,
    tensor_families,
    transpose_family,
    weyl_meb,
)
from museb import compose


def s_set():
    return FamilySet((catalog("S1"), catalog("S2"), catalog("S3")))


def r_set():
    return FamilySet((catalog("R1"), catalog("R2")))


def test_tensor_dimensions_rank_and_count():
    out = tensor_families(s_set(), mub_prime(2))
    assert (out.d, out.dprime, out.k) == (3, 6, 3)
    assert len(out) == 3
    assert len(out[0]) == 18
    assert check_museb_set(out).passed


def test_tensor_count_is_min_of_inputs():
    assert len(tensor_families(r_set(), s_set())) == 2
    assert len(tensor_families(s_set(), r_set())) == 2
    assert len(tensor_families(s_set(), mub_prime(5))) == 3


def test_tensor_element_order_left_factor_slowest():
    out = tensor_families(r_set(), mub_prime(2))
    left, right = catalog("R1"), mub_prime(2)[0]
    # element a*len(right)+b must be kron(left[a], right[b])
    for a in (0, 3, 5):
        for b in (0, 1):
            got = out[0][a * 2 + b]
            assert np.max(np.abs(got - np.kron(left[a], right[b]))) < 1e-12


def test_tensor_overlap_product_law():
    out = tensor_families(s_set(), mub_prime(2))
    s, t = s_set(), mub_prime(2)
    rng = np.random.default_rng(41)
    for _ in range(30):
        fi, fj = rng.choice(3, size=2, replace=False)
        a, b = rng.integers(0, 9), rng.integers(0, 2)
        c, e = rng.integers(0, 9), rng.integers(0, 2)
        lhs = abs(hs_inner(out[fi][a * 2 + b], out[fj][c * 2 + e]))
        rhs = abs(hs_inner(s[fi][a], s[fj][c])) * abs(hs_inner(t[fi][b], t[fj][e]))
        assert abs(lhs - rhs) < 1e-12


def test_tensor_rejects_empty_sets():
    with pytest.raises(EmptyInput):
        tensor_families(FamilySet(()), s_set())
    with pytest.raises(EmptyInput):
        tensor_families(s_set(), FamilySet(()))


def test_transpose_rejects_an_empty_set():
    with pytest.raises(EmptyInput):
        transpose_family(FamilySet(()))


def test_tensor_labels_join():
    out = tensor_families(r_set(), s_set())
    assert out[0].label == "R1*S1"


def test_transpose_family_swaps_dims_and_preserves_verdict():
    out = transpose_family(r_set())
    assert (out.d, out.dprime, out.k) == (3, 2, 2)
    assert check_museb_set(out).passed
    assert np.max(np.abs(out[0][2] - catalog("R1")[2].T)) == 0.0
    back = transpose_family(out)
    assert np.array_equal(back[1].elements, catalog("R2").elements)


def test_transpose_family_copies_each_family_once():
    qubits = tensor_families(mumeb_qubit(), mumeb_qubit())
    fs = tensor_families(qubits, s_set())  # three families of C^12 (x) C^12
    for fam in fs:
        fam.elements  # formed on first read, here before tracing: the peak is the transpose's
    tracemalloc.start()
    try:
        out = transpose_family(fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a second copy of any one family would add a third of the result
    assert peak < 1.2 * sum(fam.elements.nbytes for fam in out)
    assert all(fam.elements.flags.c_contiguous for fam in out)
    assert np.array_equal(out[2].elements, fs[2].elements.transpose(0, 2, 1))


# ------------------------------------------------------------------ recipes

def test_recipe_m69_two_witnesses():
    out = run_recipe("m69")
    assert (out.d, out.dprime, out.k) == (6, 9, 6)
    assert len(out) == 2
    # spot check the overlap magnitude between the two families
    ov = abs(hs_inner(out[0][7], out[1][31]))
    assert abs(ov - 1 / np.sqrt(54)) < 1e-12


def test_recipe_cor21k_seb2():
    out = run_recipe("cor21k_seb2", k=2)
    assert (out.d, out.dprime, out.k) == (3, 4, 2)
    assert len(out) == 2
    ov = abs(hs_inner(out[0][0], out[1][5]))
    assert abs(ov - 1 / np.sqrt(12)) < 1e-12


def test_recipe_cor21k_mumeb_degenerate_is_the_frozen_pair():
    out = run_recipe("cor21k_mumeb", d=1, q=1)
    assert len(out) == 2
    assert np.max(np.abs(out[0].elements - catalog("R1").elements)) == 0.0
    assert np.max(np.abs(out[1].elements - catalog("R2").elements)) == 0.0


def test_recipe_cor21k_mumeb_scales_up():
    out = run_recipe("cor21k_mumeb", d=2, q=1)
    assert (out.d, out.dprime, out.k) == (4, 6, 4)
    assert len(out) == 2


def test_recipe_example3_matches_the_literal_construction():
    out = run_recipe("example3")
    assert (out.d, out.dprime, out.k) == (6, 6, 3)
    assert len(out) == 3
    s, t = s_set(), mub_prime(2)
    for fi in range(3):
        assert len(out[fi]) == 36
        for ti in (0, 1):
            for si in (0, 4, 8):
                for tj in (0, 1):
                    idx = ti * 18 + si * 2 + tj
                    want = np.kron(t[fi][ti].T, np.kron(s[fi][si], t[fi][tj]))
                    assert np.max(np.abs(out[fi][idx] - want)) < 1e-12


def test_recipe_example3_spectra():
    out = run_recipe("example3")
    third = 1 / np.sqrt(3.0)
    for fi in range(3):
        sv = np.linalg.svd(out[fi].elements, compute_uv=False)
        target = np.array([third, third, third, 0.0, 0.0, 0.0])
        assert np.max(np.abs(sv - target)) < 1e-12


def test_recipe_example1_three_witnesses():
    out = run_recipe("example1")
    assert (out.d, out.dprime, out.k) == (4, 24, 4)
    assert len(out) == 3
    assert len(out[0]) == 96
    # maximal rank on the smaller side: every element is maximally entangled
    sv = singular_values(out[2][17])
    assert np.max(np.abs(sv - 0.5)) < 1e-12


def test_recipe_theorem3_generic():
    out = run_recipe("theorem3", d=2, dprime=2, p=3, q=3)
    assert (out.d, out.dprime, out.k) == (6, 6, 6)
    assert len(out) == 3
    assert check_museb_set(out).passed


def test_recipe_corollary1_both_orientations():
    right = run_recipe("corollary1_right", d=2, dprime=3, q=4)
    assert (right.d, right.dprime, right.k) == (2, 12, 2)
    assert len(right) == 2
    left = run_recipe("corollary1_left", d=2, dprime=3, p=3)
    assert (left.d, left.dprime, left.k) == (6, 3, 2)
    assert len(left) == 2


def test_recipe_unknown_name():
    with pytest.raises(ValueError):
        run_recipe("theorem9")


def test_recipe_missing_parameters():
    with pytest.raises(ValueError):
        run_recipe("theorem3", d=2)
    with pytest.raises(ValueError):
        run_recipe("theorem3", d=2, dprime=3, p=0, q=2)


@pytest.mark.parametrize("spec, refused", [
    (("m69", {"d": 7, "k": 5}), ["d", "k"]),
    (("cor21k_seb2", {"q": 3}), ["q"]),
    (("theorem3", {"d": 2, "dprime": 3, "p": 3, "q": 3, "k": 1}), ["k"]),
])
def test_recipe_names_parameters_it_does_not_take(spec, refused):
    name, params = spec
    with pytest.raises(ValueError, match=re.escape(f"does not take parameters {refused}")):
        run_recipe(name, **params)


@pytest.mark.parametrize("spec", [
    ("cor21k_seb2", {"k": 2.7}),
    ("cor21k_seb2", {"k": True}),
    ("cor21k_seb2", {"k": "2"}),
    ("theorem3", {"d": 2, "dprime": 3, "p": 2.0, "q": 3}),
], ids=["k_fractional", "k_bool", "k_string", "p_float"])
def test_recipe_parameters_must_be_ints(spec):
    # the museb-1 header's rule: never coerced, so 2.7 and True cannot build k = 2 or 1
    name, params = spec
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        run_recipe(name, **params)


def test_recipe_takes_numpy_integers_as_the_header_does():
    got = run_recipe("theorem3", d=np.int64(2), dprime=3, p=np.int32(2), q=np.uint8(2))
    assert got == run_recipe("theorem3", d=2, dprime=3, p=2, q=2)
    assert [fam.label for fam in got] == ["R1*frame0", "R2*frame1"]
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        run_recipe("cor21k_seb2", k=np.bool_(True))
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        run_recipe("cor21k_seb2", k=np.int64(0))


def test_recipe_out_of_scope_parameters_are_refused_loudly():
    with pytest.raises(UnsupportedParameters) as exc:
        run_recipe("theorem3", d=5, dprime=5, p=1, q=2)
    assert "C^5" in str(exc.value)
    with pytest.raises(UnsupportedParameters):
        run_recipe("cor21k_mumeb", d=5, q=1)
    with pytest.raises(UnsupportedParameters):
        run_recipe("theorem3", d=2, dprime=5, p=1, q=1)


@pytest.mark.parametrize("name, params", [
    ("cor21k_mumeb", {"d": 10, "q": 1}),
    ("theorem3", {"d": 15, "dprime": 15, "p": 1, "q": 1}),
])
def test_refusal_names_the_missing_prime_square(name, params):
    with pytest.raises(UnsupportedParameters, match=re.escape("C^5 (x) C^5")):
        run_recipe(name, **params)


@pytest.mark.parametrize("name, params", [
    ("theorem3", {"d": 10, "dprime": 10, "p": 1, "q": 1}),
    ("cor21k_mumeb", {"d": 10, "q": 1}),
])
def test_a_refused_shape_builds_nothing(monkeypatch, name, params):
    builds = []
    for shape, builder in compose._LEAVES.items():
        monkeypatch.setitem(compose._LEAVES, shape,
                            lambda shape=shape, builder=builder: builds.append(shape) or builder())
    with pytest.raises(UnsupportedParameters, match=re.escape("C^5 (x) C^5")):
        run_recipe(name, **params)
    assert builds == []


def leaves(tree):
    if isinstance(tree[0], int):
        return [tree]
    return [leaf for sub in tree if sub != "T" for leaf in leaves(sub)]


def test_known_trees_plan_the_built_in_shapes_without_building():
    planned = {}
    for d in range(1, 61):
        for dprime in range(d, 61):
            try:
                planned[d, dprime] = compose._plan((d, dprime))
            except UnsupportedParameters:
                pass
    assert len(planned) == 76
    assert all(leaf in compose._LEAVES or leaf[0] == 1
               for tree in planned.values() for leaf in leaves(tree))
    assert planned[1, 12] == (1, 12)
    assert planned[8, 8] == (((2, 2), (2, 2)), (2, 2))
    assert planned[12, 12] == (((2, 2), (2, 2)), (3, 3))
    assert compose._plan((3, 2)) == ("T", (2, 3))


@pytest.mark.parametrize("tree", [(6, 6), (4, 4), (3, 2), ((2, 3), (6, 6)), ("T", (2, 1))])
def test_build_refuses_an_unplanned_leaf(tree):
    # _build evaluates planned trees only: an unplanned (6, 6) must not fall
    # through to mub_composite(6), the C^1 (x) C^6 set, nor (3, 2) to mub_composite(2)
    with pytest.raises(KeyError):
        compose._build(tree, 1e-9)


@pytest.mark.parametrize("shape", sorted(compose._LEAVES))
def test_every_leaf_certifies_at_its_shape(shape):
    fs = compose._LEAVES[shape]()
    assert (fs.d, fs.dprime) == shape
    assert check_museb_set(fs).passed


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 9, 12])
def test_square_sets_are_left_folds_of_the_prime_square_leaves(d):
    fs = compose._build(compose._plan((d, d)), 1e-9)
    assert (len(fs), fs.d, fs.dprime, fs.k) == (3, d, d, d)
    assert check_museb_set(fs).passed
    leaves = [compose._LEAVES[p, p]() for p, a in factorize(d) for _ in range(a)]
    fold = functools.reduce(tensor_families, leaves)
    assert [fam.label for fam in fs] == [fam.label for fam in fold]
    for got, want in zip(fs, fold):
        assert got.elements.tobytes() == want.elements.tobytes()


def test_recipe_certifies_every_ingredient(monkeypatch):
    mub_composite = compose.mub_composite

    def tampered(q):
        fs = mub_composite(q)
        if q != 2:
            return fs
        el = fs[0].elements.copy()
        el[0] *= 1.001
        bad = BasisFamily(fs.d, fs.dprime, fs.k, el, fs[0].label)
        return FamilySet((bad,) + fs.families[1:])

    monkeypatch.setattr(compose, "mub_composite", tampered)
    with pytest.raises(VerificationFailed, match=r"^ingredient \(1, 2\) failed"):
        run_recipe("example1")


def test_composed_outputs_certify_end_to_end():
    pool = {
        "weyl33": FamilySet((weyl_meb(3, 3),)),
        "qubit": mumeb_qubit(),
        "mub3": mub_prime(3),
        "rset": r_set(),
    }
    for left in pool.values():
        for right in pool.values():
            out = tensor_families(left, right)
            assert len(out) == min(len(left), len(right))
            assert out.k == left.k * right.k
            rep = check_museb_set(out)
            assert rep.passed, rep.worst_violation


def test_tensor_three_deep_keeps_certifying():
    out = tensor_families(r_set(), tensor_families(mub_prime(2), mumeb_qubit()))
    assert (out.d, out.dprime, out.k) == (4, 12, 4)
    assert check_museb_set(out).passed


def kron_mub_composite(q):
    """Unbiased bases of C^q as first written: np.kron of p x p basis matrices.

    Column j of each matrix is vector j; the factors run in increasing
    prime-power order, a copies of basis t of C^p for each p ** a.
    """
    parts = sorted(factorize(q), key=lambda pa: pa[0] ** pa[1])
    mats = {p: [fam.elements[:, 0, :].T for fam in mub_prime(p)] for p, _ in parts}
    bases = []
    for t in range(min(p + 1 for p, _ in parts)):
        full = np.eye(1, dtype=complex)
        for p, a in parts:
            for _ in range(a):
                full = np.kron(full, mats[p][t])
        bases.append(full.T)
    return bases


@pytest.mark.parametrize("q", [q for q in range(4, 73) if not is_prime(q)])
def test_mub_composite_matches_the_kron_reference(q):
    got = mub_composite(q)
    want = kron_mub_composite(q)
    assert len(got) == len(want)
    assert [fam.label for fam in got] == [f"mub{q}.t{t}" for t in range(len(want))]
    ulp = 2.0 ** -52
    for fam, basis in zip(got, want):
        assert fam.elements.shape == (q, 1, q)
        assert np.max(np.abs(fam.elements[:, 0, :] - basis)) <= ulp
    ref = FamilySet(tuple(
        BasisFamily(1, q, 1, basis.reshape(q, 1, q), fam.label) for fam, basis in zip(got, want)
    ))
    got_report, ref_report = check_museb_set(got), check_museb_set(ref)
    assert got_report.passed == ref_report.passed
    assert abs(got_report.worst_violation - ref_report.worst_violation) <= q * ulp


def test_tensor_families_takes_over_its_fresh_product_array():
    s = compose._build(compose._plan((6, 6)), 1e-9)
    t = compose._build(compose._plan((4, 4)), 1e-9)
    tracemalloc.start()
    try:
        out = tensor_families(s, t)
        for fam in out:
            fam.elements  # formed on first read, inside the traced region
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(fam.elements.nbytes for fam in out)
    assert result == 15_925_248
    # a second copy of any one family would add a third of the result
    assert peak <= 1.1 * result
    assert all(fam.elements.flags.c_contiguous and not fam.elements.flags.writeable
               for fam in out)
    digest = hashlib.sha256(b"".join(fam.elements.tobytes() for fam in out)).hexdigest()
    assert digest == "a78aa458489c7ccae88abb88e73c13190eb33761b1312250679760ae3653d96c"


# run in a fresh interpreter, whose peak RSS is the recipe's alone; formed, the
# products would take 31 GB, 105 GB and 2.5 TB.  VmHWM, not ru_maxrss: Linux carries
# the spawning process's peak RSS into the child's ru_maxrss across exec
TOO_LARGE_TO_FORM = """
import sys
from museb import run_recipe
fs = run_recipe("theorem3", **dict(zip(("d", "dprime", "p", "q"), map(int, sys.argv[1:]))))
assert all("elements" not in vars(fam) for fam in fs)
with open('/proc/self/status') as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))
print(len(fs), fs.d, fs.dprime, peak_kb)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
@pytest.mark.parametrize("params, want", [
    ((2, 3, 72, 72), (2, 144, 216)),
    ((36, 36, 6, 6), (3, 216, 216)),
    ((2, 3, 216, 216), (2, 432, 648)),
])
def test_products_too_large_to_form_certify_in_little_memory(params, want):
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", TOO_LARGE_TO_FORM, *map(str, params)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, d, dprime, peak_kb = proc.stdout.split()
    assert (int(count), int(d), int(dprime)) == want  # run_recipe returns certified sets only
    assert int(peak_kb) < 500 * 1024
    assert int(peak_kb) < 128 * 1024
