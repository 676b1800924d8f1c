"""museb runs on numpy alone.

The library's imports, every built-in family set (mumeb_qubit and the
sets with a (2, 2) leaf among them) and every CLI command, the
third-basis search included, never load scipy.linalg, and they all exit
0 in an interpreter where import scipy fails.  Each case runs in a fresh
interpreter, since a module once imported stays in sys.modules for the
rest of a process.  A static check over the sources keeps every file
under src/museb free of scipy imports; scipy is a test-only dependency.
Another keeps each input rule with its one owner.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_LOADED = "'scipy.linalg' in sys.modules"


def _run(code, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("code", [
    "import museb, museb.cli",
    "from museb import cli\n"
    "assert cli.main(['generate', 'mub', '5', '--out', 'mub5.json']) == 0\n"
    "assert cli.main(['verify', 'mub5.json']) == 0",
    "from museb import cli\n"
    "assert cli.main(['trio', '--builtin']) == 0",
    "from museb import cli\n"
    "assert cli.main(['generate', 'mumeb-qubit', '--out', 'qubit.json']) == 0",
    "from museb import cli\n"
    "assert cli.main(['compose', 'example1', '--out', 'example1.json']) == 0",
    # the set-up of perfbench's grow_c24 workload, then its certification
    "import museb\n"
    "qubit = museb.mumeb_qubit()\n"
    "square3 = museb.FamilySet(tuple(museb.catalog(n) for n in ('S1', 'S2', 'S3')))\n"
    "assert museb.check_museb_set(museb.tensor_families(qubit, square3)).passed",
], ids=["import", "generate_then_verify", "trio_builtin", "generate_mumeb_qubit",
        "compose_example1", "grow_c24_setup"])
def test_numpy_only_paths_never_load_scipy_linalg(tmp_path, code):
    out = _run(f"import sys\n{code}\nprint('loaded', {_LOADED})", cwd=tmp_path)
    assert out.splitlines()[-1] == "loaded False"


def test_third_basis_search_never_loads_scipy_linalg(tmp_path):
    code = ("import sys\nfrom museb import cli\n"
            "assert cli.main(['search', 'third-basis', '--seed', '0']) == 0\n"
            f"print('loaded', {_LOADED})")
    assert _run(code, cwd=tmp_path).splitlines()[-1] == "loaded False"


def test_every_command_runs_where_scipy_cannot_be_imported(tmp_path):
    # a None entry in sys.modules makes every import of scipy raise ImportError
    code = """
import sys
sys.modules['scipy'] = None
from museb import cli
for argv in (['generate', 'mub', '5', '--out', 'mub5.json'],
             ['verify', 'mub5.json'],
             ['compose', 'example1', '--out', 'example1.json'],
             ['trio', '--builtin'],
             ['search', 'third-basis', '--seed', '0', '--iterations', '20', '--restarts', '1'],
             ['search', 'closure', '--pairs', '50']):
    assert cli.main(argv) == 0, argv
print('done')
"""
    assert _run(code, cwd=tmp_path).splitlines()[-1] == "done"


def _scipy_imports(tree):
    """(enclosing function or None, module) for each import of scipy in a module."""
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((func, a.name) for a in child.names if a.name.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "scipy":
                found.append((func, child.module))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            walk(child, inner)

    walk(tree, None)
    return found


def test_no_source_file_imports_scipy():
    found = []
    for path in sorted((SRC / "museb").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend((path.name, func, module) for func, module in _scipy_imports(tree))
    assert found == []


def _owned(tree, match):
    """The dotted name of the enclosing class and function of each node match accepts."""
    found = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(owner)
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            walk(child, f"{owner}.{child.name}" if named else owner)

    walk(tree, "")
    return found


def _raises_empty_input(node):
    exc = node.exc if isinstance(node, ast.Raise) else None
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "EmptyInput"


def _integer_test(node):
    # isinstance(_, (int, np.integer)): the integer half of the dimension and count rules
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Tuple)
            and {ast.unparse(e) for e in node.args[1].elts} == {"int", "np.integer"})


def test_each_input_rule_has_one_owner():
    # a FamilySet is never empty, so only its constructor refuses emptiness, and only
    # matspace says what an integer input is
    empty, integer = [], []
    for path in sorted((SRC / "museb").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        empty.extend(path.stem + owner for owner in _owned(tree, _raises_empty_input))
        integer.extend(path.stem for _ in _owned(tree, _integer_test))
    assert empty == ["verify.FamilySet.__post_init__"]
    assert set(integer) == {"matspace"}


# the digests from when mumeb_qubit computed its frame with scipy.linalg.expm:
# the frames' element bytes, and the saved run_recipe("example1") of test_familyfile
_FRAMES = "907bd39f5adfcacca4b4a43851f722863f292c9f0ad94b63bae946f07ac467ae"
_EXAMPLE1 = "6b94e273e9edeceb01a2ae3cbdb0f4bc6fc6d0ff64fdafe7a124d069df2cd317"


def test_mumeb_qubit_keeps_its_bytes_without_scipy_linalg(tmp_path):
    code = f"""
import hashlib, sys
import museb
print('before', {_LOADED})
frames = hashlib.sha256(b''.join(f.elements.tobytes() for f in museb.mumeb_qubit()))
print('after', {_LOADED})
print(frames.hexdigest())
museb.save_family_set(museb.run_recipe('example1'), 'example1.json')
print(hashlib.sha256(open('example1.json', 'rb').read()).hexdigest())
"""
    assert _run(code, cwd=tmp_path).split() == [
        "before", "False", "after", "False", _FRAMES, _EXAMPLE1]
