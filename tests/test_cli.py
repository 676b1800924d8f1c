import json

import numpy as np
import pytest

from museb import catalog, load_family_set, save_matrix
from museb.cli import main


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
    assert fs.witness_count == 2
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


@pytest.mark.parametrize("edit", [
    lambda doc: {**doc, "d": float("inf")},
    lambda doc: {**doc, "labels": 5},
    lambda doc: {**doc, "bases": [doc["bases"][0][:5] + [[[[0.0, 0.0]]]]]},
    lambda doc: {**doc, "k": 2.7},
    lambda doc: {**doc, "k": "2"},
    lambda doc: {**doc, "k": 2.0},
    lambda doc: {**doc, "k": True},
], ids=["d_overflows", "labels_not_a_list", "mixed_matrix_shapes",
        "k_fractional", "k_string", "k_float", "k_bool"])
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
    assert fs.witness_count == 2
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "PASS" in out


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
    assert fs.witness_count == 3


def test_compose_tensor_refuses_uncertified_input(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "generate", "mub", "2", "--out", str(a))
    doc = json.loads(a.read_text())
    doc["bases"][0][0][0][1][0] = 0.9
    a.write_text(json.dumps(doc))
    code, _, err = run(capsys, "compose", "tensor", str(a), str(a))
    assert code == 1
    assert "failed certification" in err


def test_compose_out_of_scope_is_exit_2(capsys):
    code, _, err = run(
        capsys, "compose", "theorem3", "--d", "5", "--dprime", "5", "--p", "1", "--q", "2"
    )
    assert code == 2
    assert "C^5" in err


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


def test_search_third_basis_deterministic_output(capsys):
    args = ("search", "third-basis", "--seed", "1", "--iterations", "40", "--restarts", "2")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "best_cost:" in out_a
    assert "converged_to_zero: false" in out_a


def test_usage_errors_exit_2(capsys):
    assert main(["generate", "weyl", "two", "3"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
