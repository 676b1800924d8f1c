import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from museb import (
    BasisFamily,
    EmptyInput,
    FamilySet,
    FileFormatError,
    ShapeMismatch,
    catalog,
    load_family_set,
    load_matrix,
    mub_prime,
    mumeb_qubit,
    run_recipe,
    save_family_set,
    save_matrix,
    weyl_meb,
)
from museb import familyfile
from museb.familyfile import _dumps_stack, dumps_matrix, matrix_from_list


def r_set():
    return FamilySet((catalog("R1"), catalog("R2")))


def _matrix_to_list(mat):
    # a matrix, or a stack of them, as nested [real, imag] lists
    arr = np.asarray(mat, complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def _document(fs):
    """fs's museb-1 document as the dict whose json.dumps the writer must match byte for byte."""
    return {"format_version": "museb-1", "d": fs.d, "dprime": fs.dprime, "k": fs.k,
            "labels": [f.label for f in fs], "bases": [_matrix_to_list(f.elements) for f in fs]}


def _json_parse(text):
    """A valid document's header, labels and each basis's (shape, bytes), by json's whole-tree parse."""
    doc = json.loads(text)
    stacks = [np.asarray(b, float).view(complex)[..., 0] for b in doc["bases"]]
    labels = doc.get("labels", [""] * len(stacks))
    return doc["d"], doc["dprime"], doc["k"], labels, [(a.shape, a.tobytes()) for a in stacks]


def _contents(fs):
    """The same view of a loaded set, to compare with _json_parse."""
    return (fs.d, fs.dprime, fs.k, [f.label for f in fs],
            [(f.elements.shape, f.elements.tobytes()) for f in fs])


def _load_document(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_family_set(path)


@pytest.mark.parametrize("fs_builder", [r_set, lambda: mub_prime(5), mumeb_qubit])
def test_round_trip_is_exact(tmp_path, fs_builder):
    fs = fs_builder()
    path = tmp_path / "set.json"
    save_family_set(fs, path)
    back = load_family_set(path)
    assert len(back) == len(fs)
    assert (back.d, back.dprime, back.k) == (fs.d, fs.dprime, fs.k)
    for orig, loaded in zip(fs, back):
        assert loaded.label == orig.label
        assert np.array_equal(loaded.elements, orig.elements)


def test_version_tag_is_checked(tmp_path):
    doc = _document(r_set())
    doc["format_version"] = "museb-0"
    with pytest.raises(FileFormatError):
        _load_document(tmp_path, doc)
    del doc["format_version"]
    with pytest.raises(FileFormatError):
        _load_document(tmp_path, doc)


def test_malformed_documents_are_rejected(tmp_path):
    with pytest.raises(FileFormatError):
        _load_document(tmp_path, [])
    doc = _document(r_set())
    doc.pop("bases")
    with pytest.raises(FileFormatError):
        _load_document(tmp_path, doc)

    doc = _document(r_set())
    doc["bases"][0] = doc["bases"][0][:3]  # drop half a basis
    with pytest.raises(FileFormatError):
        _load_document(tmp_path, doc)

    doc = _document(r_set())
    doc["labels"] = ["only-one"]
    with pytest.raises(FileFormatError):
        _load_document(tmp_path, doc)

    doc = _document(r_set())
    doc["bases"][0][0][0][0] = [1.0]  # not a [re, im] pair
    with pytest.raises(FileFormatError):
        _load_document(tmp_path, doc)

    # header fields are JSON integers, never coerced
    for key, val in [("k", 2.7), ("k", "2"), ("k", 2.0), ("k", True), ("d", 2.0), ("dprime", "3")]:
        doc = _document(r_set())
        doc[key] = val
        with pytest.raises(FileFormatError, match=f"{key} must be an integer"):
            _load_document(tmp_path, doc)

    # entries are JSON numbers: a string, boolean or null anywhere in one is
    # refused, a boolean among floats (which numpy would read as 0 or 1) too
    re0 = _document(r_set())["bases"][0][0][0][0][0]
    for at, entry in [((0, 0, 0, 0), [repr(re0), False]), ((0, 0, 0, 0), [re0, "0.0"]),
                      ((0, 0, 0, 0), [re0, False]), ((1, 5, 1, 2), [True, 0.0]),
                      ((1, 2, 0, 1), [0.5, True]), ((0, 3, 1, 0), [None, 0.0]),
                      ((0, 3, 1, 0), [0.0, None]), ((0, 0, 0, 0), [True, False])]:
        doc = _document(r_set())
        basis, element, row, col = at
        doc["bases"][basis][element][row][col] = entry
        with pytest.raises(FileFormatError, match="entries must be numbers"):
            _load_document(tmp_path, doc)

    # a Weyl basis is mostly exact zeros; a false among them is found too
    doc = _document(FamilySet((weyl_meb(3, 4),)))
    assert doc["bases"][0][5][2][0] == [0.0, 0.0]
    doc["bases"][0][5][2][0] = [0.0, False]
    with pytest.raises(FileFormatError, match="entries must be numbers, got bool"):
        _load_document(tmp_path, doc)


def test_empty_set_is_refused_before_the_file_exists(tmp_path):
    path = tmp_path / "empty.json"
    # a FamilySet is never empty, so there is no set to hand save_family_set
    with pytest.raises(EmptyInput, match="family set is empty"):
        save_family_set(FamilySet(()), path)
    assert not path.exists()


def test_truncated_json_file(tmp_path):
    path = tmp_path / "broken.json"
    save_family_set(r_set(), path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(FileFormatError):
        load_family_set(path)


def test_matrix_round_trip(tmp_path):
    mat = catalog("V")
    path = tmp_path / "v.json"
    save_matrix(mat, path)
    assert np.array_equal(load_matrix(path), mat)


def test_matrix_accepts_bare_nested_lists(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]]))
    mat = load_matrix(path)
    assert np.array_equal(mat, np.array([[1.0, 1j], [-1j, 1.0]]))
    path.write_text(json.dumps([[[1, 0], [0, 1]], [[0, -1], [1, 0]]]))  # JSON integers
    assert np.array_equal(load_matrix(path), mat)


def test_matrix_rejects_malformed(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format_version": "museb-1", "nope": 1}))
    with pytest.raises(FileFormatError, match="must carry a 'matrix' field"):
        load_matrix(path)
    path.write_text(json.dumps([[1.0, 2.0]]))
    with pytest.raises(FileFormatError):
        load_matrix(path)
    path.write_text(json.dumps({"format_version": "museb-1", "matrix": [[[[1.0, 0.0]]]]}))
    with pytest.raises(FileFormatError, match="expected one matrix"):  # a stack
        load_matrix(path)
    for entry in (["1.0", 0.0], [1.0, False], [None, 0.0]):
        path.write_text(json.dumps([[[0.0, 1.0], entry], [[0.0, 1.0], [1.0, 0.0]]]))
        with pytest.raises(FileFormatError, match="entries must be numbers"):
            load_matrix(path)
    path.write_text("[[[1.0, 0.0]]")
    with pytest.raises(FileFormatError, match="not valid JSON"):
        load_matrix(path)


# sha256 of the files the original per-entry writer produced; any writer
# change must keep the bytes, -0.0 and float reprs included
@pytest.mark.parametrize("fs_builder, digest", [
    (lambda: mub_prime(5), "9e2bad8b37071e200bc77337beb0876906214aadfb977b47ae7a50f19ec4cee0"),
    (lambda: run_recipe("example3"),
     "ae19ec94e65063739ec9994d6bf82d53ce31af5aa5419b412ba0c9ca04c129fc"),
    (lambda: run_recipe("theorem3", d=2, dprime=3, p=3, q=3),
     "6302315a7afc699350701bc3d0e01e71d481709af893518659a290310716f18d"),
    (lambda: run_recipe("corollary1_right", d=2, dprime=3, q=4),
     "ba771edce21aa321c56ce7963d56b7acadbc487707cf6492889cb6ff618211e4"),
    (lambda: run_recipe("corollary1_left", d=2, dprime=3, p=3),
     "84c59c23cb5a57f5a39b1cc0f5e91f0414cd0435f8292ef8429e54e9957588c5"),
    # p = 1 transposes the trivial set, so its labels read triv^T
    (lambda: run_recipe("corollary1_left", d=2, dprime=3, p=1),
     "f9858b38f6d39f293a9819c3a69a1ba3f364d883d73d214d1eb2c36d84e8df55"),
    (lambda: run_recipe("example1"),
     "6b94e273e9edeceb01a2ae3cbdb0f4bc6fc6d0ff64fdafe7a124d069df2cd317"),
    (lambda: run_recipe("cor21k_mumeb", d=2, q=2),
     "065a4b4751f7fc6fcaff0bdf7cd58238ff1b3539cd0555115d150c1e3d0ca2e4"),
    (lambda: run_recipe("cor21k_seb2", k=3),
     "aab9d67930899589a9a917e4fe1032af4de2b7a6c04e3262e51e65c028d4ddad"),
    # m69 is theorem3 on (2, 3) and (3, 3), byte for byte
    (lambda: run_recipe("m69"),
     "6302315a7afc699350701bc3d0e01e71d481709af893518659a290310716f18d"),
    # mirrored, single-sided and composite leaves: (3, 2), (q, 1), (1, 12), (4, 4) and (6, 6)
    (lambda: run_recipe("theorem3", d=3, dprime=2, p=2, q=3),
     "f1022f9321094e8428d90fd0e00ffc642f9d9ab95df48be2803f3f38cd78e532"),
    (lambda: run_recipe("theorem3", d=4, dprime=1, p=1, q=1),
     "73110115fbbc59ecd151e18ae68637dddcce3403b35c8942d68283ec087b6c53"),
    (lambda: run_recipe("theorem3", d=6, dprime=1, p=1, q=1),
     "7d06352e040f53bf2476ebbcdbb533ca5c2491e743e90795d191ebe5e5fdc250"),
    (lambda: run_recipe("theorem3", d=6, dprime=6, p=1, q=1),
     "289722072bdb17ab5eb925f7253447efc3fbac2c3a47f8b4cd63bcb3318327e9"),
    (lambda: run_recipe("corollary1_right", d=2, dprime=3, q=12),
     "c8c18b5babf0f42305288e152ad88b2a7b8e76b2a3ccfcc141aa245b17da0829"),
    (lambda: run_recipe("cor21k_mumeb", d=4, q=1),
     "59f7f0cd66fe34591abbd068305dd368442c123f47739b4a7490b80e5b61bac7"),
    # 303,372 doubles drawn from 103 distinct number texts
    (lambda: mub_prime(53), "3c3808b0a15e1d26ebe515d8970f05245856cc7f3ce07359c6a0e61b37bd278e"),
])
def test_saved_bytes_are_pinned(tmp_path, fs_builder, digest):
    path = tmp_path / "set.json"
    save_family_set(fs_builder(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_matrix_to_list_matches_per_entry_conversion():
    mat = np.array([[complex(-0.0, 0.5), complex(-0.0, 1e-300)],
                    [complex(np.pi, -0.0), complex(-1.0, -2.5e-17)]])
    per_entry = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    # compared as JSON text so that -0.0 and 0.0 count as different
    assert _dumps_stack(mat) == json.dumps(per_entry)
    assert _dumps_stack(mat[None]) == json.dumps([per_entry])


_BIG = 1.7976931348623157e308  # the largest finite double
_EDGE = np.array([[complex(-0.0, -0.0), complex(5e-324, -_BIG), complex(-0.0, -0.0)],
                  [complex(_BIG, 5e-324), complex(0.0, -0.0), complex(5e-324, -_BIG)]])


def _per_entry_document(mat):
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    return json.dumps({"format_version": "museb-1", "matrix": rows})


def test_matrix_text_is_pinned_at_the_edges_of_float_repr():
    # signed zeros, the smallest subnormal, the largest double and repeats
    text = dumps_matrix(_EDGE)
    assert text == (
        '{"format_version": "museb-1", "matrix": [[[-0.0, -0.0], '
        '[5e-324, -1.7976931348623157e+308], [-0.0, -0.0]], '
        '[[1.7976931348623157e+308, 5e-324], [0.0, -0.0], '
        '[5e-324, -1.7976931348623157e+308]]]}'
    )
    assert text == _per_entry_document(_EDGE)
    # a transposed view is not C-contiguous
    assert not _EDGE.T.flags["C_CONTIGUOUS"]
    text_t = dumps_matrix(_EDGE.T)
    assert text_t == (
        '{"format_version": "museb-1", "matrix": [[[-0.0, -0.0], '
        '[1.7976931348623157e+308, 5e-324]], '
        '[[5e-324, -1.7976931348623157e+308], [0.0, -0.0]], '
        '[[-0.0, -0.0], [5e-324, -1.7976931348623157e+308]]]}'
    )
    assert text_t == _per_entry_document(_EDGE.T)


# few values, so that repeats are common: signed zeros, subnormals, the
# largest double, pi and the 1/sqrt(53) of mub_prime(53), each with both signs
_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, _BIG, -_BIG, math.pi, -math.pi,
         1 / math.sqrt(53), -1 / math.sqrt(53)]


@st.composite
def _pooled(draw, shape):
    n = math.prod(shape)
    arr = np.empty(shape, complex)  # real and imag set apart, so -0.0 survives
    arr.real = np.reshape(draw(st.lists(st.sampled_from(_POOL), min_size=n, max_size=n)), shape)
    arr.imag = np.reshape(draw(st.lists(st.sampled_from(_POOL), min_size=n, max_size=n)), shape)
    return arr


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ndim=st.sampled_from([2, 3]), transposed=st.booleans())
def test_stack_encoder_is_the_json_encoder(data, ndim, transposed):
    shape = tuple(data.draw(st.integers(1, 4)) for _ in range(ndim))  # length-1 axes too
    x = data.draw(_pooled(shape))
    if transposed:
        x = x.swapaxes(-1, -2)
    assert _dumps_stack(x) == json.dumps(_matrix_to_list(x))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), d=st.integers(1, 3), dprime=st.integers(1, 3), n=st.integers(1, 3))
def test_pooled_sets_and_matrices_round_trip_bit_for_bit(tmp_path, data, d, dprime, n):
    fs = FamilySet(tuple(BasisFamily(d, dprime, 1, data.draw(_pooled((d * dprime, d, dprime))),
                                     f"f{i}") for i in range(n)))
    path = tmp_path / "set.json"
    save_family_set(fs, path)
    back = load_family_set(path)
    assert len(back) == n
    assert all(_same_bits(a.elements, b.elements) for a, b in zip(fs, back))

    mat = data.draw(_pooled((d, dprime)))
    save_matrix(mat, path)
    loaded = load_matrix(path)
    assert _same_bits(loaded, mat)
    assert _same_bits(loaded, matrix_from_list(json.loads(path.read_text())["matrix"]))


def test_loaded_signed_zeros_keep_their_sign(tmp_path):
    # re + 1j * im would turn every -0.0 imaginary part into 0.0
    path = tmp_path / "edge.json"
    save_matrix(_EDGE, path)
    assert _same_bits(load_matrix(path), _EDGE)
    assert np.signbit(load_matrix(path).imag).tolist() == [[True, True, True], [False, True, True]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
def test_matrix_writer_refuses_non_finite_entries(tmp_path, bad):
    mat = np.array([[1.0, bad]])
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        dumps_matrix(mat)
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        save_matrix(mat, path)
    assert not path.exists()


@pytest.mark.parametrize("mat", [np.ones((2, 2, 2)), np.ones(3), np.array(1.0), np.ones((0, 3))],
                         ids=["three_axes", "vector", "scalar", "no_rows"])
def test_matrix_writer_refuses_what_the_reader_refuses(tmp_path, mat):
    # load_matrix reads back only a 2-D matrix with at least one entry
    with pytest.raises(ShapeMismatch):
        dumps_matrix(mat)
    path = tmp_path / "m.json"
    with pytest.raises(ShapeMismatch):
        save_matrix(mat, path)
    assert not path.exists()
    path.write_text(json.dumps({"format_version": "museb-1",
                                "matrix": json.loads(_dumps_stack(mat.astype(complex)))}))
    with pytest.raises(FileFormatError, match="expected one matrix"):
        load_matrix(path)


def test_tagged_matrix_files_must_carry_museb_1(tmp_path):
    path = tmp_path / "m.json"
    for doc in ({"format_version": "museb-9", "matrix": [[[1.0, 0.0]]]},
                {"matrix": [[[1.0, 0.0]]]}):
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="unsupported format_version"):
            load_matrix(path)
    path.write_text(json.dumps({"format_version": "museb-1", "matrix": [[[1.0, 0.0]]]}))
    assert np.array_equal(load_matrix(path), np.array([[1.0]]))


@pytest.mark.parametrize("text", ['[[[1e999, 0.0]]]', '[[[0.0, -1e999]]]',
                                  '{"format_version": "museb-1", "matrix": [[[1e999, 0.0]]]}'])
def test_matrix_reader_refuses_overflowing_numbers(tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)  # the number parses as inf; the writer never emits it
    with pytest.raises(FileFormatError, match="matrix entries must be finite"):
        load_matrix(path)


def test_saved_text_is_the_one_shot_encoding(tmp_path):
    fams = [BasisFamily(f.d, f.dprime, f.k, f.elements, label)
            for f, label in zip(mub_prime(3), ['psi "0"', "ψ\\1", "", "x, y"])]
    fs = FamilySet(tuple(fams))
    path = tmp_path / "set.json"
    save_family_set(fs, path)
    assert path.read_text(encoding="utf-8") == json.dumps(_document(fs)) + "\n"
    assert [f.label for f in load_family_set(path)] == [f.label for f in fs]


_NEG0 = "<-0>"  # stands in for the JSON integer token -0 until the text is written


def _integral_entries(node, zero):
    """node with each integral float as a JSON integer and each zero, of either sign, as zero."""
    if isinstance(node, list):
        return [_integral_entries(x, zero) for x in node]
    if node == 0:
        return zero
    return int(node) if node.is_integer() else node


# a stale value per key, written before the real one; json keeps the last, and
# a stale bases is refused only if it is the value that counts
_DECOYS = {"format_version": '"museb-0"', "d": '"2"', "dprime": "2.5", "k": "true",
           "labels": '["x"]', "bases": "[[5], {}]"}


@st.composite
def _reserialized(draw):
    """The text of a valid document, laid out, ordered and spelled another way."""
    fs = draw(st.sampled_from([r_set, lambda: mub_prime(3), lambda: FamilySet((weyl_meb(3, 4),))]))()
    doc = _document(fs)
    if draw(st.booleans()):
        del doc["labels"]
    entries = draw(st.sampled_from(["floats", "integers", "-0 integers"]))
    if entries != "floats":
        doc["bases"] = _integral_entries(doc["bases"], 0 if entries == "integers" else _NEG0)
    indent = draw(st.none() | st.integers(0, 3))
    items = draw(st.permutations([(key, json.dumps(value, indent=indent)) for key, value in doc.items()]))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        items.insert(draw(st.integers(0, [k for k, _ in items].index(key))), (key, _DECOYS[key]))
    gap = draw(st.sampled_from(["", " ", "\n", " \t\r\n "]))
    fields = (f"{json.dumps(key)}{gap}:{gap}{value}" for key, value in items)
    text = "{" + gap + f",{gap}".join(fields) + gap + "}" + gap
    return text.replace(json.dumps(_NEG0), "-0")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_reserialized())
def test_reader_agrees_with_json_loads_on_reserialized_documents(tmp_path, text):
    path = tmp_path / "set.json"
    path.write_text(text, encoding="utf-8")
    assert _contents(load_family_set(path)) == _json_parse(text)


def _edited_r_set(edit):
    doc = _document(r_set())
    edit(doc, doc["bases"][0])
    return doc


_ROW = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]  # a 1 x 3 matrix among the 2 x 3 ones
_INCONSISTENT = "stored basis is inconsistent: "


# (edit of the R set's document, the exact refusal): each basis is read into one
# stack, yet a wrong count, a ragged basis and a bad entry are refused as when
# the whole list of elements is stacked at once
@pytest.mark.parametrize("edit, message", [
    (lambda doc, b: b.pop(), _INCONSISTENT + "expected elements of shape (6, 2, 3), got (5, 2, 3)"),
    (lambda doc, b: b.append(b[0]),
     _INCONSISTENT + "expected elements of shape (6, 2, 3), got (7, 2, 3)"),
    (lambda doc, b: b.extend(b[:]),
     _INCONSISTENT + "expected elements of shape (6, 2, 3), got (12, 2, 3)"),
    (lambda doc, b: doc.update(k=5, bases=[b + b[:1], doc["bases"][1]]),
     _INCONSISTENT + "k must sit in [1, 2], got 5"),
    (lambda doc, b: b.extend([b[0], [_ROW]]), familyfile._NOT_A_BASIS),
    (lambda doc, b: b.insert(0, [_ROW]), familyfile._NOT_A_BASIS),
    (lambda doc, b: b.clear(), familyfile._NOT_A_BASIS),
    (lambda doc, b: b.extend([[_ROW], b[0], [[["0.0", 0.0]] * 3] * 2]),
     "matrix entries must be numbers, got str"),
    (lambda doc, b: b.extend([b[0], [[[0.0, 0.0]] * 3, [[0.0]] * 3]]),
     "matrix entries must be [real, imag] pairs"),
], ids=["one_short", "one_over", "twice_over", "over_and_bad_k", "over_then_ragged",
        "ragged_first", "empty", "ragged_then_bad_entry", "over_then_bad_pair"])
def test_each_stacked_basis_keeps_its_refusal(tmp_path, edit, message):
    with pytest.raises(FileFormatError) as info:
        _load_document(tmp_path, _edited_r_set(edit))
    assert str(info.value).startswith(message)


def test_a_large_first_element_stacks_only_what_the_file_spells_out(tmp_path):
    # a 100 x 100 first element promises 10,000 such elements, 1.6 GB; the stack
    # holds the one element there is, 0.16 MB, and scanning it takes about 2 MB
    doc = _document(r_set())
    doc["bases"][0] = [[[[0.0, 0.0]] * 100] * 100]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match=r"got \(1, 100, 100\)"):
            load_family_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("fs_builder", [r_set, lambda: mub_prime(5),
                                        lambda: FamilySet((weyl_meb(12, 12),))])
def test_a_set_loads_through_a_pipe_as_from_its_file(tmp_path, fs_builder):
    # a pipe has no length to read ahead of its text, as with museb verify <(zcat f.gz);
    # the weyl file is some 0.4 MB, several times a pipe's buffer
    path, fifo = tmp_path / "set.json", tmp_path / "set.fifo"
    save_family_set(fs_builder(), path)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    try:
        piped = load_family_set(fifo)
    finally:
        writer.join(timeout=60)
    assert _contents(piped) == _contents(load_family_set(path))
    assert all(np.array_equal(f.elements, g.elements) for f, g in zip(piped, fs_builder()))


def test_one_large_basis_loads_into_one_array(tmp_path):
    # the 2.6 MB basis is scanned into the array the family takes, with no list
    # of its elements beside it: the peak is the array and about one window of text
    path = tmp_path / "weyl20.json"
    save_family_set(FamilySet((weyl_meb(20, 20),)), path)
    tracemalloc.start()
    try:
        fs = load_family_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(fs[0].elements, weyl_meb(20, 20).elements)
    assert peak < fs[0].elements.nbytes + 10 * familyfile._CHUNK


def test_load_holds_the_text_and_the_arrays_not_the_json_tree(tmp_path):
    # json.load of this file peaks at about 29 MB traced: a Python float and
    # list slot for each of its 303,372 numbers
    path = tmp_path / "mub53.json"
    save_family_set(mub_prime(53), path)
    tracemalloc.start()
    try:
        fs = load_family_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(fam.elements.nbytes for fam in fs)
    assert peak < path.stat().st_size + 4 * arrays


@pytest.mark.parametrize("indent", [None, 3])
def test_load_is_bounded_by_its_arrays_not_its_text(tmp_path, indent):
    # the file is read a window of text at a time, so neither the 6.6 MB file
    # nor its 17 MB indented form counts against the 2.4 MB of arrays
    fs = mub_prime(53)
    path = tmp_path / "mub53.json"
    if indent is None:
        save_family_set(fs, path)
    else:
        path.write_text(json.dumps(_document(fs), indent=indent), encoding="utf-8")
    tracemalloc.start()
    try:
        back = load_family_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(fam.elements.nbytes for fam in back)
    assert path.stat().st_size > 2 * arrays
    assert peak < 2 * arrays
    assert all(_same_bits(a.elements, b.elements) for a, b in zip(back, fs))


# ru_maxrss would not do here: Linux carries the spawning process's peak RSS
# into the child's across exec, so under pytest it reads pytest's own peak;
# VmHWM is the peak of the interpreter's own address space
def _fresh_interpreter(tmp_path, code):
    """The integers on the last line code prints, run in a fresh interpreter in
    tmp_path after importing gc, os, museb and museb.cli and defining peak(),
    the VmHWM so far in bytes."""
    prelude = """
import gc, os
import museb
from museb import cli

def peak():
    with open('/proc/self/status') as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:')) * 1024
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", prelude + code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return list(map(int, proc.stdout.splitlines()[-1].split()))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_cli_verify_rss_rises_by_less_than_half_the_file(tmp_path):
    # a fresh interpreter, so its peak RSS so far is the save's; the verify
    # that follows may lift it by its arrays and a window, not by the file
    exit_code, rise, size = _fresh_interpreter(tmp_path, """
museb.save_family_set(museb.mub_prime(53), 'mub53.json')
gc.collect()
before = peak()
code = cli.main(['verify', 'mub53.json'])
print(code, peak() - before, os.path.getsize('mub53.json'))
""")
    assert exit_code == 0
    assert rise < size / 2


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_cli_generate_rss_rises_by_less_than_half_again_the_arrays(tmp_path):
    # the set is built once and written a basis at a time, so generating it
    # lifts the peak by its arrays and little more
    exit_code, rise, arrays = _fresh_interpreter(tmp_path, """
gc.collect()
before = peak()
code = cli.main(['generate', 'mub', '53', '--out', 'mub53.json'])
rise = peak() - before
print(code, rise, sum(fam.elements.nbytes for fam in museb.load_family_set('mub53.json')))
""")
    assert exit_code == 0
    assert rise < 1.5 * arrays


def _malformed_r_set_files():
    """Broken museb-1 files, each of a kind that once escaped as another error.

    The cases after not_utf8 reach the reader's own walk over the punctuation
    of the document, its bases and each basis.
    """
    text = json.dumps(_document(r_set()))
    doc = json.loads(text)
    mixed = json.loads(text)
    mixed["bases"][0][1] = mixed["bases"][0][1][:1]  # one 1 x 3 matrix among 2 x 3 ones
    not_strings = json.loads(text)
    not_strings["labels"] = [1, 2]
    number_element = json.loads(text)
    number_element["bases"][0][3] = 0.5
    transposed = json.loads(text)  # a 3 x 2 matrix among 2 x 3 ones: as many entries, two shapes
    transposed["bases"][1][2] = [list(col) for col in zip(*transposed["bases"][1][2])]
    stacked = json.loads(text)
    stacked["bases"][0][2] = [stacked["bases"][0][2]]  # one element wrapped in one more list
    deep = "[" * 100_000 + "]" * 100_000
    assert text.count("]]], [[[") > 1  # the first one sits between two elements of basis 0
    return {
        "d_overflows": text.replace('"d": 2', '"d": 1e999').encode(),
        "labels_not_a_list": json.dumps({**doc, "labels": 5}).encode(),
        "labels_not_strings": json.dumps(not_strings).encode(),
        "mixed_matrix_shapes": json.dumps(mixed).encode(),
        "entry_overflows": text.replace("0.0", "1" + "0" * 400, 1).encode(),
        "not_utf8": text.encode()[:40] + b"\xff\xfe" + text.encode()[40:],
        "trailing_data": (text + ' {"d": 2}').encode(),
        "top_level_array": json.dumps([doc]).encode(),
        "top_level_number": b"2",
        "bases_an_object": json.dumps({**doc, "bases": {"0": doc["bases"][0]}}).encode(),
        "bases_a_number": json.dumps({**doc, "bases": 2}).encode(),
        "element_a_number": json.dumps(number_element).encode(),
        "element_nested_too_deep": text.replace('"bases": [[', f'"bases": [[{deep}, ', 1).encode(),
        "missing_comma_between_elements": text.replace("]]], [[[", "]]] [[[", 1).encode(),
        "number_for_a_key": text.replace('"d": 2', '2: 2', 1).encode(),
        "element_shapes_differ": json.dumps(transposed).encode(),
        "element_a_stack": json.dumps(stacked).encode(),
    }


MALFORMED = _malformed_r_set_files()


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_files_raise_only_file_format_error(tmp_path, kind):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED[kind])
    with pytest.raises(FileFormatError):
        load_family_set(path)


def test_an_element_that_is_a_stack_is_refused(tmp_path):
    # each element is parsed as one matrix; a (1, 2, 3) stack in its place is not one
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED["element_a_stack"])
    with pytest.raises(FileFormatError, match="expected one matrix"):
        load_family_set(path)


@pytest.mark.parametrize("early, message", [
    (lambda t: t.replace(', "dprime"', ' "dprime"', 1), "Expecting ',' delimiter"),
    (lambda t: t.replace('"d":', '"d"', 1), "Expecting ':' delimiter"),
    (lambda t: t.replace('"d": 2', '2: 2', 1), "Expecting property name"),
    (lambda t: "[" + t[1:-1] + "]", "expected a JSON object"),
], ids=["comma", "colon", "key", "array"])
def test_a_late_bad_byte_outranks_an_early_syntax_error(tmp_path, early, message):
    # a whole-file decode meets a bad byte before any syntax error, so a
    # refused file is read to its end; the padding puts the byte windows away
    text = early(json.dumps(_document(r_set())))
    pad = b" " * (4 * familyfile._CHUNK)
    path = tmp_path / "bad.json"
    path.write_bytes(text[:-1].encode() + pad + text[-1:].encode())
    with pytest.raises(FileFormatError, match=message):
        load_family_set(path)
    path.write_bytes(text[:-1].encode() + pad + b"\xff" + text[-1:].encode())
    with pytest.raises(FileFormatError, match="codec can't decode byte 0xff"):
        load_family_set(path)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6,
)


def _mutate_tree(data, node):
    """Replace or delete one node, chosen by a random walk from the root."""
    while isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            if data.draw(st.booleans()):
                del node[key]
            else:
                node[key] = data.draw(_json_values)
            return
        node = child


def _fuzzed(data):
    """The bytes of an R1/R2 document with a node of its tree or a few of its bytes changed."""
    text = json.dumps(_document(r_set()))
    if data.draw(st.booleans()):
        doc = json.loads(text)
        _mutate_tree(data, doc)
        return json.dumps(doc).encode()
    raw = bytearray(text.encode())
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(raw) - 1))
        op = data.draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if op == "set":
            raw[at] = data.draw(st.integers(0, 255))
        elif op == "insert":
            raw[at:at] = data.draw(st.binary(min_size=1, max_size=4))
        elif op == "delete":
            del raw[at]
        else:
            del raw[at:]
        if not raw:
            break
    return bytes(raw)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_documents_raise_only_file_format_error(tmp_path, data):
    path = tmp_path / "fuzz.json"
    path.write_bytes(_fuzzed(data))
    try:
        load_family_set(path)
    except FileFormatError:
        pass


def _outcome(path):
    """What load_family_set makes of a file: each family's header, label and bytes, or the refusal."""
    try:
        fs = load_family_set(path)
    except FileFormatError as exc:
        return str(exc)
    return [(f.d, f.dprime, f.k, f.label, f.elements.tobytes()) for f in fs]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chunk=st.integers(1, 64), text=_reserialized(), data=st.data(),
       extras=st.lists(st.floats() | st.integers(-10**30, 10**30), max_size=8))
def test_every_chunk_size_reads_what_one_read_would(tmp_path, chunk, text, data, extras):
    # the reader holds a window of a few chunks, so tiny chunks cut every
    # key, number, literal and run of whitespace somewhere; the extra fields,
    # which a load ignores, put bare numbers such as 1e-05 where a cut "1e"
    # would still scan as a number
    fields = "".join(f'"x{i}": {json.dumps(v)}, ' for i, v in enumerate(extras))
    text = "{" + fields + text[1:]
    at = data.draw(st.integers(0, len(text)))
    broken = text[:at] + data.draw(st.sampled_from(["x", ",", "]", "}", '"', "1e", "\n\x00"])) + text[at:]
    files = {"fuzz": _fuzzed(data), "broken": broken.encode(), **MALFORMED}
    for name, raw in files.items():
        (tmp_path / f"{name}.json").write_bytes(raw)
    at_default = {name: _outcome(tmp_path / f"{name}.json") for name in files}
    path = tmp_path / "set.json"
    path.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(familyfile, "_CHUNK", chunk)
        back = load_family_set(path)
        # the same sets, and the same refusals placed at the same line, column and char
        assert {name: _outcome(tmp_path / f"{name}.json") for name in files} == at_default
    assert all(isinstance(at_default[kind], str) for kind in MALFORMED)
    assert _contents(back) == _json_parse(text)


def test_numpy_integer_header_round_trips(tmp_path):
    # numpy dimensions are stored as ints, so the JSON header is written, not refused
    fam = catalog("R1")
    fs = FamilySet((BasisFamily(np.int64(2), np.int32(3), np.int64(2), fam.elements, "R1"),))
    assert [type(v) for v in (fs.d, fs.dprime, fs.k)] == [int, int, int]
    path = tmp_path / "set.json"
    save_family_set(fs, path)
    back = load_family_set(path)
    assert (back.d, back.dprime, back.k) == (2, 3, 2)
    assert np.array_equal(back[0].elements, fam.elements)
    plain = tmp_path / "plain.json"
    save_family_set(FamilySet((fam,)), plain)
    assert path.read_bytes() == plain.read_bytes()
