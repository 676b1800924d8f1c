"""museb loads scipy.linalg only where a function needs it.

The library's imports, the file-path CLI commands and the built-in trio
run on numpy alone; mumeb_qubit, the built-in sets with a (2, 2) leaf and
the third-basis search import scipy.linalg when they are called.  Each
case runs in a fresh interpreter, since a module once imported stays in
sys.modules for the rest of a process.
"""

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
], ids=["import", "generate_then_verify", "trio_builtin"])
def test_numpy_only_paths_never_load_scipy_linalg(tmp_path, code):
    out = _run(f"import sys\n{code}\nprint('loaded', {_LOADED})", cwd=tmp_path)
    assert out.splitlines()[-1] == "loaded False"


# the digests from when scipy.linalg was imported at module level: the frames'
# element bytes, and the saved run_recipe("example1") of test_familyfile
_FRAMES = "907bd39f5adfcacca4b4a43851f722863f292c9f0ad94b63bae946f07ac467ae"
_EXAMPLE1 = "6b94e273e9edeceb01a2ae3cbdb0f4bc6fc6d0ff64fdafe7a124d069df2cd317"


def test_mumeb_qubit_loads_scipy_linalg_and_keeps_its_bytes(tmp_path):
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
        "before", "False", "after", "True", _FRAMES, _EXAMPLE1]
