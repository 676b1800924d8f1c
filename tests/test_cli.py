import argparse
import copy
import hashlib
import json

import numpy as np
import pytest

from museb import (
    FamilySet,
    catalog,
    familyfile,
    load_family_set,
    mub_prime,
    save_family_set,
    save_matrix,
    weyl_meb,
)
from museb.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_then_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "weyl.json"
    code, out, _ = run(capsys, "generate", "weyl", "2", "3", "--out", str(path))
    assert code == 0 and str(path) in out
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "PASS" in out
    assert "witness_count: 1" in out


def test_generate_c23_solves_third_angle(tmp_path, capsys):
    path = tmp_path / "pair.json"
    code, _, _ = run(capsys, "generate", "c23", "0", "4.71238898038469", "--out", str(path))
    assert code == 0
    fs = load_family_set(path)
    assert len(fs) == 2
    assert np.max(np.abs(fs[1].elements - catalog("R2").elements)) < 1e-9
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "PASS" in out


def test_generate_c23_rejects_inadmissible(capsys):
    code, _, err = run(capsys, "generate", "c23", "0", "4.71238898038469", "0.5")
    assert code == 2
    assert "error:" in err


def test_generate_weyl_wrong_order(capsys):
    code, _, err = run(capsys, "generate", "weyl", "3", "2")
    assert code == 2
    assert "d <= d'" in err


def test_generate_mub_rejects_composite(capsys):
    code, _, err = run(capsys, "generate", "mub", "4")
    assert code == 2
    assert "not prime" in err


def test_generate_catalog_family_and_matrix(tmp_path, capsys):
    fam_path = tmp_path / "s1.json"
    code, _, _ = run(capsys, "generate", "catalog", "S1", "--out", str(fam_path))
    assert code == 0
    assert load_family_set(fam_path).k == 3

    code, out, _ = run(capsys, "generate", "catalog", "Q")
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"][0][0] == [0.0, -1.0]


def test_catalog_matrix_stdout_is_the_saved_document(tmp_path, capsys):
    path = tmp_path / "u.json"
    save_matrix(catalog("U"), path)
    code, out, _ = run(capsys, "generate", "catalog", "U")
    assert code == 0
    saved = path.read_text(encoding="utf-8")
    assert saved.endswith("\n")
    assert out.rstrip("\n") == saved[:-1]


def test_generate_catalog_matrix_to_a_file_reads_back_bit_for_bit(tmp_path, capsys):
    path = tmp_path / "u.json"
    code, out, _ = run(capsys, "generate", "catalog", "U", "--out", str(path))
    assert (code, out) == (0, f"wrote {path}\n")
    assert familyfile.load_matrix(path).tobytes() == catalog("U").tobytes()


def test_family_set_stdout_is_the_saved_document(tmp_path, capsys, monkeypatch):
    path = tmp_path / "weyl.json"
    save_family_set(FamilySet((weyl_meb(2, 3),)), path)
    streams = []
    writer = familyfile._write_family_set
    monkeypatch.setattr(familyfile, "_write_family_set",
                        lambda fs, fh: streams.append(fh) or writer(fs, fh))
    code, out, _ = run(capsys, "generate", "weyl", "2", "3")
    assert code == 0 and len(streams) == 1  # the writer behind save_family_set
    assert out.encode("utf-8") == path.read_bytes()


def _with_entry(doc, basis, element, row, col, entry):
    doc = copy.deepcopy(doc)
    doc["bases"][basis][element][row][col] = entry
    return doc


@pytest.mark.parametrize("edit", [
    lambda doc: {**doc, "d": float("inf")},
    lambda doc: {**doc, "labels": 5},
    lambda doc: {**doc, "bases": [doc["bases"][0][:5] + [[[[0.0, 0.0]]]]]},
    lambda doc: {**doc, "k": 2.7},
    lambda doc: {**doc, "k": "2"},
    lambda doc: {**doc, "k": 2.0},
    lambda doc: {**doc, "k": True},
    lambda doc: _with_entry(doc, 0, 0, 0, 0, ["0.7071067811865475", False]),
    lambda doc: _with_entry(doc, 0, 0, 0, 0, [0.7071067811865475, False]),
    lambda doc: _with_entry(doc, 0, 5, 1, 2, [True, 0.0]),
    lambda doc: _with_entry(doc, 0, 0, 0, 1, [None, 0.0]),
], ids=["d_overflows", "labels_not_a_list", "mixed_matrix_shapes",
        "k_fractional", "k_string", "k_float", "k_bool",
        "entry_string_and_false", "entry_false_among_floats", "entry_true_among_floats",
        "entry_null"])
def test_verify_malformed_file_exits_2_without_traceback(tmp_path, capsys, edit):
    path = tmp_path / "bad.json"
    run(capsys, "generate", "weyl", "2", "3", "--out", str(path))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_verify_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"format_version": "museb-1", "d": \xff}')
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_verify_flags_perturbed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    run(capsys, "generate", "weyl", "2", "3", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["bases"][0][0][0][0][0] += 1e-3
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "offender" in out


def test_verify_k_override_fails_honestly(tmp_path, capsys):
    path = tmp_path / "weyl.json"
    run(capsys, "generate", "weyl", "2", "3", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--k", "1")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("k", ["0", "3"])
def test_verify_k_outside_the_shape_exits_2(tmp_path, capsys, k):
    path = tmp_path / "weyl.json"
    run(capsys, "generate", "weyl", "2", "3", "--out", str(path))
    code, out, err = run(capsys, "verify", str(path), "--k", k)
    assert code == 2 and out == ""
    assert err == f"error: k must sit in [1, 2], got {k}\n"


def test_verify_rejects_truncated_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    run(capsys, "generate", "weyl", "2", "2", "--out", str(path))
    path.write_text(path.read_text()[:40])
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error:" in err


def test_compose_recipe_writes_verified_set(tmp_path, capsys):
    path = tmp_path / "m69.json"
    code, _, _ = run(capsys, "compose", "m69", "--out", str(path))
    assert code == 0
    fs = load_family_set(path)
    assert (fs.d, fs.dprime, fs.k) == (6, 9, 6)
    assert len(fs) == 2
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("to_file", [True, False])
def test_compose_forms_every_product_before_writing(tmp_path, monkeypatch, capsys, to_file):
    # the recipe certifies through its factors; only the writer forms the products
    def failing(*args, **kwargs):
        raise MemoryError("cannot form the product")

    monkeypatch.setattr(np, "einsum", failing)
    path = tmp_path / "m69.json"
    with pytest.raises(MemoryError):
        main(["compose", "m69", *(["--out", str(path)] if to_file else [])])
    assert not path.exists()
    assert capsys.readouterr().out == ""


def test_compose_tensor_of_two_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out_path = tmp_path / "ab.json"
    run(capsys, "generate", "mub", "2", "--out", str(a))
    run(capsys, "generate", "mub", "3", "--out", str(b))
    code, _, _ = run(capsys, "compose", "tensor", str(a), str(b), "--out", str(out_path))
    assert code == 0
    fs = load_family_set(out_path)
    assert (fs.d, fs.dprime, fs.k) == (1, 6, 1)
    assert len(fs) == 3


def test_compose_tensor_refuses_uncertified_input(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "generate", "mub", "2", "--out", str(a))
    doc = json.loads(a.read_text())
    doc["bases"][0][0][0][1][0] = 0.9
    a.write_text(json.dumps(doc))
    code, _, err = run(capsys, "compose", "tensor", str(a), str(a))
    assert code == 1
    assert "failed certification" in err
    # both files are read before either is certified
    code, _, err = run(capsys, "compose", "tensor", str(a), str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("compose", "m69", "--d", "7"),
    ("compose", "m69", "--d", "7", "--k", "5"),
    ("compose", "cor21k_seb2", "--q", "2"),
    ("compose", "tensor", "{a}", "{a}", "--k", "2"),
])
def test_compose_refuses_parameters_the_recipe_does_not_take(tmp_path, capsys, argv):
    a = tmp_path / "a.json"
    run(capsys, "generate", "mub", "2", "--out", str(a))
    code, out, err = run(capsys, *(arg.format(a=a) for arg in argv))
    assert code == 2
    assert err.startswith("error:")
    assert str([arg[2:] for arg in argv if arg.startswith("--")]) in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (("compose", "m69", "{a}"), "recipe 'm69' takes parameters, not input files"),
    (("compose", "tensor", "{a}"), "compose tensor needs exactly two input files"),
    (("trio", "--builtin", "{u}"), "--builtin takes no input files"),
    (("trio", "{a}", "{u}"), "first input matrix is not unitary"),
    (("trio", "{u}", "{u}", "{u}"), "trio needs --builtin, one matrix file, or two basis files"),
])
def test_input_files_the_command_cannot_take_exit_2(tmp_path, capsys, argv, message):
    # each refusal comes before a file is read as a family set
    a, u = tmp_path / "a.json", tmp_path / "u.json"
    save_matrix(2 * catalog("U"), a)  # square, but not unitary
    save_matrix(catalog("U"), u)
    code, out, err = run(capsys, *(arg.format(a=a, u=u) for arg in argv))
    assert (code, out) == (2, "")
    assert message in err


def test_compose_out_of_scope_is_exit_2(capsys):
    code, _, err = run(
        capsys, "compose", "theorem3", "--d", "5", "--dprime", "5", "--p", "1", "--q", "2"
    )
    assert code == 2
    assert "C^5" in err


def test_compose_refusal_names_the_missing_prime_square(capsys):
    code, out, err = run(capsys, "compose", "cor21k_mumeb", "--d", "10")
    assert (code, out) == (2, "")
    assert "C^5 (x) C^5" in err


def test_trio_builtin_finds_obstruction(capsys):
    code, out, _ = run(capsys, "trio", "--builtin")
    assert code == 0
    assert "is_chm: true" in out
    assert "obstructed: true" in out
    assert "row_pair:" in out


def test_trio_single_matrix_file(tmp_path, capsys):
    n = 6
    j = np.arange(n)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    path = tmp_path / "f6.json"
    save_matrix(fourier, path)
    code, out, _ = run(capsys, "trio", str(path))
    assert code == 0
    assert "obstructed: true" in out


def test_trio_reports_no_obstruction_as_exit_1(tmp_path, capsys):
    n = 5
    j = np.arange(n)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    path = tmp_path / "f5.json"
    save_matrix(fourier, path)
    code, out, _ = run(capsys, "trio", str(path))
    assert code == 1
    assert "obstructed: false" in out


def test_trio_two_basis_files(tmp_path, capsys):
    u_path = tmp_path / "u.json"
    v_path = tmp_path / "v.json"
    save_matrix(catalog("U"), u_path)
    save_matrix(catalog("V"), v_path)
    code, out, _ = run(capsys, "trio", str(u_path), str(v_path))
    assert code == 0
    assert "obstructed: true" in out


def test_trio_refuses_two_bases_of_different_sizes(tmp_path, capsys):
    # both are unitary, so only their shapes keep U^dagger V from being formed
    u_path = tmp_path / "u.json"
    v_path = tmp_path / "v.json"
    save_matrix(catalog("U"), u_path)
    save_matrix(np.eye(4), v_path)
    code, out, err = run(capsys, "trio", str(u_path), str(v_path))
    assert code == 2
    assert err == "error: the two bases have shapes (6, 6) and (4, 4)\n"
    assert out == ""


def test_trio_rejects_non_square(tmp_path, capsys):
    path = tmp_path / "rect.json"
    path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]))
    code, _, err = run(capsys, "trio", str(path))
    assert code == 2
    assert "error:" in err


def test_trio_rejects_non_hadamard_single_input(tmp_path, capsys):
    path = tmp_path / "u.json"
    save_matrix(catalog("U"), path)  # unitary but not flat
    code, out, err = run(capsys, "trio", str(path))
    assert code == 2
    assert "is_chm: false" in out


def test_search_closure_reports_all_failures(capsys):
    code, out, _ = run(capsys, "search", "closure", "--pairs", "50", "--seed", "7")
    assert code == 0
    assert "closure failures: 50/50" in out


# sha256 of the stdout of the per-pair scalar probe path, before batching;
# the third-basis entries were re-recorded when the walk's step became the
# closed-form 2x2 exponential, and again when the walk began scoring its
# restarts together against one penalty kernel; each moved only the last
# digits of best_cost
SEARCH_STDOUT_SHA256 = {
    ("search", "third-basis", "--seed", "0"):
        "75ce21ad19c1a8cbd034104347e2a155aa5c152bbed11a763a04078b8004aa4e",
    ("search", "third-basis", "--seed", "1"):
        "79cd8219ed22c1d7ef277440aac037c3442cd29fb6dea7082685ddc9f0c7aa45",
    ("search", "third-basis", "--seed", "2"):
        "f26084694f92c40652654503d4fd3825ebee0683cb8803dc9f6cc8db2e62f7c9",
    ("search", "third-basis", "--seed", "3"):
        "ad08717bac5cd3a9e16958f674818d471a634cc0d97840d58a5d0787925266e3",
    ("search", "closure", "--pairs", "10000", "--seed", "0"):
        "6d5111e5ebbfdb56a206527f162d1d973f46ca9a8226c95cd06b8a1123d4f7f8",
    ("search", "closure", "--pairs", "200", "--seed", "0", "--tol", "1e-6"):
        "8528c6deec0a1b303f74d947d7fe0817226ad975f5e16082044d9e508d2369f1",
    ("generate", "c23", "0", "4.71238898038469", "--tol", "1e-6"):
        "7f4bf4694d2be12d3f9c12bff531a68695e6cdd37b370497e4c09f7e676eb98c",
}


@pytest.mark.parametrize("argv", list(SEARCH_STDOUT_SHA256))
def test_probe_stdout_is_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_STDOUT_SHA256[argv]


# exit code and stdout sha256 of each certifying command at each --tol,
# recorded while verification still carried two separate tolerances
PINNED_TOLS = ("0", "1e-16", "1e-15", "1e-9", "9.9e-4")
_NO_STDOUT = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_WEYL_PASS = "6ad61b3c9741c2aa2b3f86cea4b42cc4132098e79424a92e79924fe09ce09133"
_MUB5_PASS = "4d0d6a46b4753c6356a5f5fc89d8c4a3a2627f31f2ba1225b1a2c5db9927631d"
_M69 = "6302315a7afc699350701bc3d0e01e71d481709af893518659a290310716f18d"
_TENSOR = "33222d5675ed82b58878576c272852b963bb98f4829fc7a303de82ec1a2e30bd"
_TRIO_PASS = "d258070f31cb74f82e9be0cdd880acf667863fff7ce68475bbc7f713824c6fc7"
CERTIFY_STDOUT_SHA256 = {
    ("verify", "{weyl}"): (
        (1, "f1098024343774dcda5a833b3c19fc94d82700e839d13149df18ab8ca9cdfa52"),
        (1, "6e14f37cce09b0a79010eafa3a4b5914325724bdf6b50f702a2399d54cd4dbe2"),
        (0, _WEYL_PASS), (0, _WEYL_PASS), (0, _WEYL_PASS),
    ),
    ("verify", "{mub5}"): (
        (1, "95cfe6b59859968b56acf1f1ebc461a95ce27bddff959b05a3b83838152205b8"),
        (1, "1712c32596d6a40bedd74764869e38b1d8690a4a941a298ac3b9befbddad0566"),
        (0, _MUB5_PASS), (0, _MUB5_PASS), (0, _MUB5_PASS),
    ),
    ("compose", "m69"): ((2, _NO_STDOUT), (2, _NO_STDOUT), (0, _M69), (0, _M69), (0, _M69)),
    ("compose", "tensor", "{mub2}", "{mub3}"): (
        (1, _NO_STDOUT), (1, _NO_STDOUT), (0, _TENSOR), (0, _TENSOR), (0, _TENSOR),
    ),
    ("trio", "--builtin"): (
        (2, "38dc861322520cbfc5ee683dab6ce31c9947b027b99acfdefcb4545083921143"),
        (1, "4e3e7c0b399019ef6a78f5a17006ceb673dbb1e75c3d80b6b0c9d5afb36b66f0"),
        (0, _TRIO_PASS), (0, _TRIO_PASS), (0, _TRIO_PASS),
    ),
}


@pytest.mark.parametrize("tol", PINNED_TOLS)
@pytest.mark.parametrize("argv", list(CERTIFY_STDOUT_SHA256),
                         ids=[" ".join(argv[:2]) for argv in CERTIFY_STDOUT_SHA256])
def test_certifying_stdout_is_pinned_at_each_tolerance(tmp_path, capsys, argv, tol):
    files = {name: tmp_path / f"{name}.json" for name in ("weyl", "mub5", "mub2", "mub3")}
    save_family_set(FamilySet((weyl_meb(2, 3),)), files["weyl"])
    for p in (5, 2, 3):
        save_family_set(mub_prime(p), files[f"mub{p}"])
    code, out, _ = run(capsys, *(arg.format(**files) for arg in argv), "--tol", tol)
    want = CERTIFY_STDOUT_SHA256[argv][PINNED_TOLS.index(tol)]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == want


@pytest.mark.parametrize("argv", [
    ("search", "closure", "--pairs", "200", "--seed", "0", "--tol", "1"),
    ("generate", "c23", "0", "4.71238898038469", "0.5", "--tol", "1"),
    ("generate", "c23", "0", "4.71238898038469", "--tol=-1e-9"),
    ("verify", "{weyl}", "--tol", "1e-3"),
    ("compose", "m69", "--tol", "1e-3"),
    ("compose", "tensor", "{weyl}", "{weyl}", "--tol=-1e-12"),
    ("trio", "--builtin", "--tol", "1e-3"),
])
def test_tol_outside_the_verify_range_exits_2(tmp_path, capsys, argv):
    weyl = tmp_path / "weyl.json"
    save_family_set(FamilySet((weyl_meb(2, 3),)), weyl)
    code, out, err = run(capsys, *(arg.format(weyl=weyl) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: tol must sit in [0, 1e-3)")


@pytest.mark.parametrize("argv, field", [
    (("search", "third-basis", "--seed", "-1"), "seed"),
    (("search", "closure", "--pairs", "5", "--seed", "-1"), "seed"),
])
def test_search_refuses_negative_seed(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field} must be an integer >= 0")


def test_search_third_basis_deterministic_output(capsys):
    args = ("search", "third-basis", "--seed", "1", "--iterations", "40", "--restarts", "2")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "best_cost:" in out_a
    assert "converged_to_zero: false" in out_a


@pytest.mark.parametrize("before, after", [
    (("search", "--seed", "1", "--iterations", "20", "third-basis", "--restarts", "1"),
     ("search", "third-basis", "--seed", "1", "--iterations", "20", "--restarts", "1")),
    (("search", "--pairs", "30", "--seed", "3", "--tol", "1e-6", "closure"),
     ("search", "closure", "--pairs", "30", "--seed", "3", "--tol", "1e-6")),
])
def test_search_flags_may_precede_the_mode(capsys, before, after):
    assert run(capsys, *before) == run(capsys, *after)
    assert run(capsys, *before)[0] == 0
    # the mode still refuses a flag it does not read, wherever the flag stands
    code, _, err = run(capsys, "search", "--pairs", "5", "third-basis")
    assert code == 2 and "unrecognized arguments: --pairs" in err


def test_usage_errors_exit_2(capsys):
    assert main(["generate", "weyl", "two", "3"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


# the optional flags of every leaf command, each one read by the leaf's handler
LEAF_FLAGS = {
    ("generate", "weyl"): {"--out"},
    ("generate", "c23"): {"--tol", "--out"},
    ("generate", "mub"): {"--out"},
    ("generate", "catalog"): {"--out"},
    ("generate", "mumeb-qubit"): {"--out"},
    ("verify",): {"--tol", "--k"},
    ("compose",): {"--tol", "--out", "--d", "--dprime", "--p", "--q", "--k"},
    ("trio",): {"--tol", "--builtin"},
    ("search", "third-basis"): {"--seed", "--iterations", "--restarts"},
    ("search", "closure"): {"--tol", "--seed", "--pairs"},
}


def _leaf_flags(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subs:
        for name, child in subs[0].choices.items():
            yield from _leaf_flags(child, path + (name,))
    else:
        yield path, {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


def test_each_leaf_takes_only_the_flags_its_handler_reads():
    assert dict(_leaf_flags(build_parser())) == LEAF_FLAGS
    assert sum(len(flags) for flags in LEAF_FLAGS.values()) == 23


UNREAD_FLAGS = [
    (("generate", "weyl", "2", "3"), "--tol"),
    (("generate", "weyl", "2", "3"), "--seed"),
    (("generate", "c23", "0", "4.71238898038469"), "--seed"),
    (("generate", "mub", "5"), "--tol"),
    (("generate", "mub", "5"), "--seed"),
    (("generate", "catalog", "S1"), "--tol"),
    (("generate", "catalog", "S1"), "--seed"),
    (("generate", "mumeb-qubit"), "--tol"),
    (("generate", "mumeb-qubit"), "--seed"),
    (("verify", "{weyl}"), "--out"),
    (("verify", "{weyl}"), "--seed"),
    (("compose", "m69"), "--seed"),
    (("trio", "--builtin"), "--out"),
    (("trio", "--builtin"), "--seed"),
    (("search", "closure", "--pairs", "5"), "--out"),
    (("search", "third-basis", "--iterations", "1", "--restarts", "1"), "--out"),
    # each search mode refuses the other's flags
    (("search", "third-basis", "--iterations", "1", "--restarts", "1"), "--tol"),
    (("search", "third-basis", "--iterations", "1", "--restarts", "1"), "--pairs"),
    # the walk's step scale is fixed, so --step is no flag
    (("search", "third-basis", "--iterations", "1", "--restarts", "1"), "--step"),
    (("search", "closure", "--pairs", "5"), "--iterations"),
    (("search", "closure", "--pairs", "5"), "--restarts"),
    (("search", "closure", "--pairs", "5"), "--step"),
]


@pytest.mark.parametrize("argv, flag", UNREAD_FLAGS,
                         ids=[" ".join(argv[:2]) + f" {flag}" for argv, flag in UNREAD_FLAGS])
def test_flags_no_handler_reads_are_usage_errors(tmp_path, capsys, argv, flag):
    weyl = tmp_path / "weyl.json"
    save_family_set(FamilySet((weyl_meb(2, 3),)), weyl)
    value = {"--out": str(tmp_path / "out.json"), "--tol": "1e-9", "--step": "0.1"}.get(flag, "1")
    code, out, err = run(capsys, *(arg.format(weyl=weyl) for arg in argv), flag, value)
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err
    assert out == "" and not (tmp_path / "out.json").exists()
