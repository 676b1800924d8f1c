"""JSON serialization of family sets and plain matrices.

The on-disk format, tagged "museb-1", stores every complex entry as a
[real, imag] pair.  Python's float repr round-trips doubles exactly, so a
save/load cycle reproduces arrays bit for bit.

Built-in witnesses draw their entries from a few scaled roots of unity,
so the writer reprs each distinct entry bit pattern once (_dumps_stack);
its text is exactly json.dumps of the entry lists.  load_family_set reads
the file text once and walks its punctuation down to the element matrices;
json's own scanner decodes every key, header value and single element, so
the grammar is json's.  Each element becomes a float array as soon as it
is scanned, so the load holds the file text plus the arrays, never the
whole tree of Python floats that json.load would build.  Memoising float
parsing by number text doubled the load time and peak memory of files
whose values do not repeat.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from typing import Any, Callable, TextIO

import numpy as np

from .errors import FileFormatError
from .verify import BasisFamily, FamilySet

__all__ = [
    "FORMAT_VERSION",
    "family_set_to_dict",
    "family_set_from_dict",
    "save_family_set",
    "load_family_set",
    "save_matrix",
    "load_matrix",
]

FORMAT_VERSION = "museb-1"


def matrix_to_list(mat: np.ndarray) -> list[list[list[float]]]:
    # shape-agnostic: a (n, d, d') stack becomes a list of n matrices
    arr = np.asarray(mat, complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def matrix_from_list(data: Any) -> np.ndarray:
    # the inverse of matrix_to_list: a matrix, or a (n, d, d') stack at once
    try:  # ragged nesting raises ValueError
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"matrix entries must be [real, imag] pairs: {exc}") from exc
    if arr.ndim not in (3, 4) or arr.shape[-1] != 2:
        raise FileFormatError(
            f"matrix must be rows x cols x [real, imag], got shape {arr.shape}"
        )
    # float() takes numeric strings, null (as nan) and booleans, so check every type
    scalars = data
    for _ in range(arr.ndim - 1):
        scalars = itertools.chain.from_iterable(scalars)
    if not (kinds := set(map(type, scalars))) <= {float, int}:
        names = ", ".join(sorted(t.__name__ for t in kinds - {float, int}))
        raise FileFormatError(f"matrix entries must be numbers, got {names}")
    # view the fresh [real, imag] pairs as complex, not re + 1j * im: that sum
    # turns a -0.0 imaginary part into 0.0
    return arr.view(complex)[..., 0]


def _dumps_stack(mat: np.ndarray) -> str:
    """The text of json.dumps(matrix_to_list(mat)), one repr per distinct entry.

    Entries are told apart by their bit patterns, so -0.0 and 0.0 keep
    their own tokens.  Callers pass finite entries only: repr of a finite
    double is the token json.dumps writes.
    """
    arr = np.ascontiguousarray(mat, dtype=complex)
    bits = arr.reshape(-1).view(np.dtype((np.void, 16)))
    uniq, inverse = np.unique(bits, return_inverse=True)
    tokens = [f"[{z.real!r}, {z.imag!r}]" for z in uniq.view(complex).tolist()]
    items = [tokens[i] for i in inverse.tolist()]
    for axis in range(arr.ndim - 1, -1, -1):  # close the innermost axis first
        n = arr.shape[axis]
        items = ["[" + ", ".join(items[i * n:(i + 1) * n]) + "]"
                 for i in range(math.prod(arr.shape[:axis]))]
    return items[0]


def _header(fs: FamilySet) -> dict[str, Any]:
    """Every field of fs's document but bases.

    Called before any output is made: it refuses an empty set and forms every
    product's elements, so a product that cannot be formed leaves no partial output.
    """
    if len(fs) == 0:
        raise FileFormatError("refusing to serialize an empty family set")
    for fam in fs:
        fam.elements  # a product's elements are formed on first read
    return {
        "format_version": FORMAT_VERSION,
        "d": fs.d,
        "dprime": fs.dprime,
        "k": fs.k,
        "labels": [fam.label for fam in fs],
    }


def family_set_to_dict(fs: FamilySet) -> dict[str, Any]:
    return {**_header(fs), "bases": [matrix_to_list(fam.elements) for fam in fs]}


def _check_version(doc: dict[str, Any]) -> None:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported format_version {version!r}; expected {FORMAT_VERSION!r}")


_NOT_A_BASIS = "each basis must be a nonempty list of matrices of one shape"


def _basis_from_list(basis: Any) -> np.ndarray:
    if not isinstance(basis, list) or not basis:
        raise FileFormatError(_NOT_A_BASIS)
    return matrix_from_list(basis)


def family_set_from_dict(doc: Any) -> FamilySet:
    if not isinstance(doc, dict):
        raise FileFormatError(f"expected a JSON object, got {type(doc).__name__}")
    return _family_set(doc, _basis_from_list)


def _family_set(doc: dict[str, Any], elements_of: Callable[[Any], np.ndarray]) -> FamilySet:
    """The set a document's fields describe; elements_of turns one entry of bases into its stack."""
    _check_version(doc)
    try:
        d, dprime, k, bases = (doc[key] for key in ("d", "dprime", "k", "bases"))
    except KeyError as exc:
        raise FileFormatError(f"missing field: {exc}") from exc
    if not isinstance(bases, list) or not bases:
        raise FileFormatError("bases must be a nonempty list")
    labels = doc.get("labels", [""] * len(bases))
    if not (isinstance(labels, list) and all(isinstance(lb, str) for lb in labels)):
        raise FileFormatError("labels, when present, must be a list of strings")
    if len(labels) != len(bases):
        raise FileFormatError("labels, when present, must align with bases")
    families = []
    for label, basis in zip(labels, bases):
        elements = elements_of(basis)
        try:
            families.append(BasisFamily(d=d, dprime=dprime, k=k, elements=elements, label=label))
        except Exception as exc:
            raise FileFormatError(f"stored basis is inconsistent: {exc}") from exc
    return FamilySet(tuple(families))


def _write_family_set(fs: FamilySet, fh: TextIO) -> None:
    """Write the text of json.dumps(family_set_to_dict(fs)) plus a newline.

    Each basis is encoded on its own by _dumps_stack, so only one basis's
    text is held at a time.
    """
    fh.write(json.dumps(_header(fs))[:-1] + ', "bases": [')
    for i, fam in enumerate(fs):
        if i:
            fh.write(", ")
        fh.write(_dumps_stack(fam.elements))
    fh.write("]}\n")


def save_family_set(fs: FamilySet, path: str | os.PathLike) -> None:
    _header(fs)  # refuses an empty set, and forms every product, before the file is created
    with open(path, "w", encoding="utf-8") as fh:
        _write_family_set(fs, fh)


def _read_json(path: str | os.PathLike) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise FileFormatError(f"not valid JSON: {exc}") from exc


# json's own C scanner decodes each value; the walk below skips only punctuation
_value = json.JSONDecoder().raw_decode  # (value starting at text[i], index past it)
_skip_ws = json.decoder.WHITESPACE.match


def _walk(text: str, i: int, close: str, item: Callable[[str, int], tuple[Any, int]]
          ) -> tuple[list[Any], int]:
    """The comma-separated items after the bracket at text[i], up to close.

    item(text, start) reads one item and returns it with the index just past it.
    """
    items = []
    i = _skip_ws(text, i + 1).end()
    if text[i:i + 1] == close:
        return items, i + 1
    while True:
        value, i = item(text, i)
        items.append(value)
        i = _skip_ws(text, i).end()
        if text[i:i + 1] == close:
            return items, i + 1
        if text[i:i + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
        i = _skip_ws(text, i + 1).end()


def _element(text: str, i: int) -> tuple[np.ndarray, int]:
    value, end = _value(text, i)
    mat = matrix_from_list(value)
    if mat.ndim != 2:
        raise FileFormatError(f"each basis element must be one matrix, got shape {mat.shape}")
    return mat, end


# A walked basis is its element stack or the FileFormatError it earned.  The
# refusal is raised only once the whole text has scanned, in the order
# family_set_from_dict would meet it, so a syntax error anywhere comes first
# and a later duplicate "bases" key still wins.
def _basis(text: str, i: int) -> tuple[np.ndarray | FileFormatError, int]:
    if text[i:i + 1] != "[":
        return FileFormatError(_NOT_A_BASIS), _value(text, i)[1]
    try:
        elements, end = _walk(text, i, "]", _element)
    except FileFormatError as exc:
        return exc, _value(text, i)[1]  # the refused basis is scanned whole to find its end
    try:
        return np.stack(elements), end
    except ValueError:  # no elements, or elements of two shapes
        return FileFormatError(_NOT_A_BASIS), end


def _field(text: str, i: int) -> tuple[tuple[str, Any], int]:
    if text[i:i + 1] != '"':
        raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, i)
    key, i = json.decoder.scanstring(text, i + 1)
    i = _skip_ws(text, i).end()
    if text[i:i + 1] != ":":
        raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
    i = _skip_ws(text, i + 1).end()
    if key == "bases" and text[i:i + 1] == "[":
        value, i = _walk(text, i, "]", _basis)
    else:
        value, i = _value(text, i)
    return (key, value), i


def _walk_document(text: str) -> dict[str, Any]:
    """The fields of a museb-1 document; an array under bases holds one walked basis per entry."""
    i = _skip_ws(text, 0).end()
    if text[i:i + 1] != "{":
        raise FileFormatError("expected a JSON object")
    fields, i = _walk(text, i, "}", _field)
    i = _skip_ws(text, i).end()
    if i != len(text):
        raise json.JSONDecodeError("Extra data", text, i)
    return dict(fields)  # the last value of a duplicate key wins, as in json.load


def _walked_basis(basis: np.ndarray | FileFormatError) -> np.ndarray:
    if isinstance(basis, FileFormatError):
        raise basis
    return basis


def load_family_set(path: str | os.PathLike) -> FamilySet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fields = _walk_document(fh.read())  # the text is freed before the families are built
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    return _family_set(fields, _walked_basis)


def dumps_matrix(mat: np.ndarray) -> str:
    """The museb-1 matrix document as one line of JSON text; entries must be finite."""
    arr = np.asarray(mat, dtype=complex)
    if not np.isfinite(arr).all():  # NaN and Infinity are not JSON numbers
        raise ValueError("matrix entries must be finite")
    return json.dumps({"format_version": FORMAT_VERSION})[:-1] + f', "matrix": {_dumps_stack(arr)}}}'


def save_matrix(mat: np.ndarray, path: str | os.PathLike) -> None:
    text = dumps_matrix(mat)  # refuses non-finite entries before the file is created
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    """Read a matrix file; bare nested lists are accepted alongside the museb-1 tagged form."""
    doc = _read_json(path)
    if isinstance(doc, dict):
        _check_version(doc)
        if "matrix" not in doc:
            raise FileFormatError("matrix file must carry a 'matrix' field")
        doc = doc["matrix"]
    mat = matrix_from_list(doc)
    if not np.isfinite(mat).all():  # a number such as 1e999 parses as inf
        raise FileFormatError("matrix entries must be finite")
    if mat.ndim != 2:
        raise FileFormatError(f"expected one matrix, got an array of shape {mat.shape}")
    return mat
