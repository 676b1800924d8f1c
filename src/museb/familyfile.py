"""JSON serialization of family sets and plain matrices.

The on-disk format, tagged "museb-1", stores every complex entry as a
[real, imag] pair.  Python's float repr round-trips doubles exactly, so a
save/load cycle reproduces arrays bit for bit.  Family sets are written
only by save_family_set and read only by load_family_set.

Built-in witnesses draw their entries from a few scaled roots of unity,
so the writer reprs each distinct entry bit pattern once (_dumps_stack);
its text is exactly json.dumps of the entry lists.  load_family_set reads
the file a chunk of text at a time, holding only the unread part, and walks
its punctuation down to the element matrices; json's own scanner decodes
every key, header value and single element, so the grammar, the values and
the refusals are json's.  Each element is written into its basis's one
stack as soon as it is scanned, and each stack is taken by its family
without a copy, so the load holds the arrays plus one window of text, never
the whole file nor the tree of Python floats that json.load would build.
Memoising float parsing by number text doubled the load time and peak
memory of files whose values do not repeat.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from typing import Any, Callable, TextIO

import numpy as np

from .errors import FileFormatError
from .matspace import as_matrix
from .verify import BasisFamily, FamilySet

__all__ = [
    "FORMAT_VERSION",
    "save_family_set",
    "load_family_set",
    "save_matrix",
    "load_matrix",
]

FORMAT_VERSION = "museb-1"


def matrix_from_list(data: Any) -> np.ndarray:
    # one matrix: rows of [real, imag] pairs
    try:  # ragged nesting raises ValueError
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"matrix entries must be [real, imag] pairs: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise FileFormatError(
            f"expected one matrix of rows x cols x [real, imag], got shape {arr.shape}"
        )
    # float() takes numeric strings, null (as nan) and booleans, so check every type
    scalars = itertools.chain.from_iterable(itertools.chain.from_iterable(data))
    if not (kinds := set(map(type, scalars))) <= {float, int}:
        names = ", ".join(sorted(t.__name__ for t in kinds - {float, int}))
        raise FileFormatError(f"matrix entries must be numbers, got {names}")
    # view the fresh [real, imag] pairs as complex, not re + 1j * im: that sum
    # turns a -0.0 imaginary part into 0.0
    return arr.view(complex)[..., 0]


def _dumps_stack(mat: np.ndarray) -> str:
    """The text json.dumps writes for mat's entry lists, one repr per distinct entry.

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

    Called before any output is made: it forms every product's elements, so a
    product that cannot be formed leaves no partial output.  fs is never empty.
    """
    for fam in fs:
        fam.elements  # a product's elements are formed on first read
    return {
        "format_version": FORMAT_VERSION,
        "d": fs.d,
        "dprime": fs.dprime,
        "k": fs.k,
        "labels": [fam.label for fam in fs],
    }


def _check_version(doc: dict[str, Any]) -> None:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported format_version {version!r}; expected {FORMAT_VERSION!r}")


_NOT_A_BASIS = "each basis must be a nonempty list of matrices of one shape"


def _family_set(doc: dict[str, Any]) -> FamilySet:
    """The set a walked document's fields describe; an entry of bases is a stack or its refusal."""
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
        if isinstance(basis, FileFormatError):
            raise basis
        try:  # a fresh complex C-ordered stack, so taken without a copy
            families.append(BasisFamily._taking(d, dprime, k, label, basis))
        except Exception as exc:
            raise FileFormatError(f"stored basis is inconsistent: {exc}") from exc
    return FamilySet(tuple(families))


def _write_family_set(fs: FamilySet, fh: TextIO) -> None:
    """Write the text json.dumps makes of fs's document, plus a newline.

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
    _header(fs)  # forms every product before the file is created
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
_CHUNK = 1 << 16  # characters read from the file per refill, at the least


def _string(text: str, i: int) -> tuple[str, int]:
    return json.decoder.scanstring(text, i + 1)  # the string whose quote is text[i]


def _next(text: str, i: int) -> tuple[str, int]:
    """The first character from text[i] on that is not whitespace ("" at the end), and its index."""
    i = _skip_ws(text, i).end()
    return text[i:i + 1], i


class _Reader:
    """The unread text of a file, held a window at a time.

    text[0] sits at character pos of the file; every index a walker holds is
    an index into text, valid until its next read.
    """

    def __init__(self, fh: TextIO) -> None:
        self.fh, self.text, self.eof = fh, "", False
        self.pos = self.line = self.column = 0  # where text[0] sits: char, line and column

    def read(self, scan: Callable[[str, int], tuple[Any, int]], i: int) -> tuple[Any, int]:
        """scan(text, i), retried on more text until it ends short of the window's edge or at EOF.

        A scan that raises is final only once the whole file is in the window.
        A number cut by the edge may scan to two characters before it, as 1
        does in "1e+" of "1e+5", so a scan ending that close is retried too.
        """
        while True:
            try:
                value, end = scan(self.text, i)
            except ValueError:
                if self.eof:
                    raise
            else:
                if end + 2 < len(self.text) or self.eof:
                    return value, end
            i = self._refill(i)

    def _refill(self, start: int) -> int:
        """Drop text before start and at least double the text held past it; start is now 0."""
        text = self.text
        newline = text.rfind("\n", 0, start)
        self.column = start - newline - 1 if newline >= 0 else self.column + start
        self.line += text.count("\n", 0, start)
        self.pos += start
        more = self.fh.read(max(_CHUNK, len(text) - start))  # a bad byte raises UnicodeDecodeError
        self.eof = not more
        self.text = text[start:] + more
        return 0

    def where(self, exc: json.JSONDecodeError) -> str:
        """json's message for exc, placed in the whole file rather than the window."""
        column = exc.colno + self.column if exc.lineno == 1 else exc.colno
        return f"{exc.msg}: line {exc.lineno + self.line} column {column} (char {exc.pos + self.pos})"


def _walk(r: _Reader, i: int, close: str, item: Callable[[_Reader, int], tuple[Any, int]],
          items: Any) -> tuple[Any, int]:
    """items, with the comma-separated items after the bracket at r.text[i], up
    to close, appended in turn.

    item(r, start) reads the item whose first character is r.text[start] and
    returns it with the index just past it.
    """
    c, i = r.read(_next, i + 1)
    if c == close:
        return items, i + 1
    while True:
        value, i = item(r, i)
        items.append(value)
        c, i = r.read(_next, i)
        if c == close:
            return items, i + 1
        if c != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", r.text, i)
        _, i = r.read(_next, i + 1)


# A walked element or basis is its array or the FileFormatError it earned.
# The refusal is raised only once the whole text has scanned, by _family_set
# in the order of bases, so a syntax error anywhere comes first and a later
# duplicate "bases" key still wins.
def _element(r: _Reader, i: int) -> tuple[np.ndarray | FileFormatError, int]:
    value, end = r.read(_value, i)
    try:
        return matrix_from_list(value), end
    except FileFormatError as exc:
        return exc, end


class _Stack:
    """A basis's walked elements, written in turn into one stack.

    The first element fixes r x c, and with it the r*c elements of a basis of
    that shape.  The stack grows as elements arrive, doubling in place up to
    r*c, so it never outgrows the elements the file has spelled out; elements
    past r*c are checked and counted, not stored.
    """

    def __init__(self) -> None:
        self.n, self.ragged = 0, False
        self.stack: np.ndarray | None = None
        self.refusal: FileFormatError | None = None

    def append(self, element: np.ndarray | FileFormatError) -> None:
        if isinstance(element, FileFormatError):
            self.refusal = self.refusal or element  # the first one is the basis's refusal
            return
        if self.refusal or self.ragged:
            return  # refused already: only an element's refusal can still change which
        if self.stack is None:
            self.stack = np.empty((1, *element.shape), dtype=complex)
        elif element.shape != self.stack.shape[1:]:
            self.ragged = True
            return
        elif self.n == len(self.stack) < element.size:
            # nothing else refers to the stack, so its memory may be reallocated
            self.stack.resize((min(2 * self.n, element.size), *element.shape), refcheck=False)
        if self.n < len(self.stack):
            self.stack[self.n] = element
        self.n += 1

    def basis(self) -> np.ndarray | FileFormatError:
        """The stacked elements, or the refusal they earned."""
        if self.refusal or self.ragged or not self.n:
            return self.refusal or FileFormatError(_NOT_A_BASIS)
        if self.n > len(self.stack):
            # more elements than a basis of their shape has: a stand-in of the count's
            # shape, which BasisFamily refuses by that shape after checking the header
            return np.broadcast_to(complex(0), (self.n, *self.stack.shape[1:]))
        return self.stack if self.n == len(self.stack) else self.stack[: self.n]


def _basis(r: _Reader, i: int) -> tuple[np.ndarray | FileFormatError, int]:
    if r.text[i:i + 1] != "[":
        return FileFormatError(_NOT_A_BASIS), r.read(_value, i)[1]
    stack, end = _walk(r, i, "]", _element, _Stack())
    return stack.basis(), end


def _field(r: _Reader, i: int) -> tuple[tuple[str, Any], int]:
    if r.text[i:i + 1] != '"':
        raise json.JSONDecodeError("Expecting property name enclosed in double quotes", r.text, i)
    key, i = r.read(_string, i)
    c, i = r.read(_next, i)
    if c != ":":
        raise json.JSONDecodeError("Expecting ':' delimiter", r.text, i)
    c, i = r.read(_next, i + 1)
    if key == "bases" and c == "[":
        value, i = _walk(r, i, "]", _basis, [])
    else:
        value, i = r.read(_value, i)
    return (key, value), i


def _walk_document(r: _Reader) -> dict[str, Any]:
    """The fields of a museb-1 document; an array under bases holds one walked basis per entry."""
    c, i = r.read(_next, 0)
    if c != "{":
        raise FileFormatError("expected a JSON object")
    fields, i = _walk(r, i, "}", _field, [])
    c, i = r.read(_next, i)
    if c:
        raise json.JSONDecodeError("Extra data", r.text, i)
    return dict(fields)  # the last value of a duplicate key wins, as in json.load


def load_family_set(path: str | os.PathLike) -> FamilySet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            r = _Reader(fh)
            try:
                fields = _walk_document(r)
            except UnicodeDecodeError:
                raise
            except (ValueError, RecursionError, FileFormatError) as exc:
                # a whole-file read would meet a bad byte anywhere first, so read on to EOF
                while fh.read(_CHUNK):
                    pass
                if isinstance(exc, json.JSONDecodeError):
                    raise FileFormatError(f"not valid JSON: {r.where(exc)}") from exc
                raise
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, a deep element
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    return _family_set(fields)


def dumps_matrix(mat: np.ndarray) -> str:
    """The museb-1 matrix document as one line of JSON text, for a matrix load_matrix reads
    back; as_matrix's rule (2-D, at least one entry, all finite) is the writer's whole check."""
    arr = as_matrix(mat)
    return json.dumps({"format_version": FORMAT_VERSION})[:-1] + f', "matrix": {_dumps_stack(arr)}}}'


def save_matrix(mat: np.ndarray, path: str | os.PathLike) -> None:
    text = dumps_matrix(mat)  # refuses what load_matrix would, before the file is created
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
    return mat
