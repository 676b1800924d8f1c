"""The benchmark's workloads: inputs drawn from the seed, one op, its output check.

Each workload is built once per process (set-up), then ``next_inputs`` draws
the next op's inputs outside the timed region, ``op`` is the timed call into
museb, and ``check`` returns None for a correct output or the reason it is
wrong.  ``op(..., perturb=True)`` scales one witness element by 1.001 before
certification; it is the negative control the tests use.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

import museb
from museb import cli

PERTURB = 1.001
VIOLATION_LIMIT = 1e-9


def _scale_one(fs: museb.FamilySet, rng: np.random.Generator) -> museb.FamilySet:
    fi = int(rng.integers(len(fs)))
    fam = fs[fi]
    elements = fam.elements.copy()
    elements[int(rng.integers(len(fam)))] *= PERTURB
    bad = museb.BasisFamily(fam.d, fam.dprime, fam.k, elements, fam.label)
    return museb.FamilySet(fs.families[:fi] + (bad,) + fs.families[fi + 1:])


def _rephase(fs: museb.FamilySet, rng: np.random.Generator) -> museb.FamilySet:
    # unit phases and reordering of elements leave every verdict unchanged
    fams = []
    for fam in fs:
        n = len(fam)
        phases = np.exp(2j * np.pi * rng.random(n))
        elements = fam.elements[rng.permutation(n)] * phases[:, None, None]
        fams.append(museb.BasisFamily(fam.d, fam.dprime, fam.k, elements, fam.label))
    return museb.FamilySet(tuple(fams))


class GrowC24:
    """tensor_families of a rank-4 C^4 set and a rank-6 C^6 set, then certify."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = np.random.default_rng(seed)
        qubit = museb.mumeb_qubit()
        square3 = museb.FamilySet(tuple(museb.catalog(n) for n in ("S1", "S2", "S3")))
        self.left = museb.tensor_families(qubit, qubit)
        self.right = museb.tensor_families(qubit, square3)

    def next_inputs(self):
        return _rephase(self.left, self.rng), _rephase(self.right, self.rng)

    def op(self, inputs, perturb: bool = False):
        product = museb.tensor_families(*inputs)
        if perturb:
            product = _scale_one(product, self.rng)
        return product, museb.check_museb_set(product)

    def check(self, out) -> str | None:
        product, report = out
        shape = (product.d, product.dprime, product.k, len(product))
        if shape != (24, 24, 24, 3) or any(len(f) != 576 for f in product):
            return f"product has shape {shape}"
        if not report.passed or report.worst_violation > VIOLATION_LIMIT:
            return f"certification failed, worst violation {report.worst_violation:.3e}"
        return None

    def close(self) -> None:
        pass


class CliMub53:
    """``museb generate mub 53 --out f`` then ``museb verify f``, in-process."""

    def __init__(self, seed: int, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, f"mub53-seed{seed}-pid{os.getpid()}.json")
        self.rng = np.random.default_rng(seed)
        self._reference = None

    def next_inputs(self):
        return self.path

    def op(self, path, perturb: bool = False):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            generated = cli.main(["generate", "mub", "53", "--out", path])
            if perturb:
                museb.save_family_set(_scale_one(museb.load_family_set(path), self.rng), path)
            verified = cli.main(["verify", path])
        return generated, verified, text.getvalue()

    def check(self, out) -> str | None:
        generated, verified, text = out
        lines = text.splitlines()
        if (generated, verified) != (0, 0):
            return f"exit codes {generated}, {verified}"
        if not lines or lines[-1] != "PASS" or "witness_count: 54" not in lines:
            return "verify did not print witness_count: 54 and PASS"
        if self._reference is None:
            self._reference = museb.mub_prime(53)
        loaded = museb.load_family_set(self.path)
        same = len(loaded) == len(self._reference) and all(
            a.elements.tobytes() == b.elements.tobytes()
            for a, b in zip(loaded, self._reference)
        )
        return None if same else "stored file differs from mub_prime(53)"

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.path))


class ProbeSearch:
    """third_basis_search, closure_sweep(5000) and theorem2_reproduce, one seed per op."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = np.random.default_rng(seed)

    def next_inputs(self):
        return int(self.rng.integers(2**31))

    def op(self, s, perturb: bool = False):
        outcome = museb.third_basis_search(museb.SearchConfig(seed=s))
        if perturb:
            outcome.best_candidate[0, 0] *= PERTURB
        return outcome, museb.closure_sweep(5000, seed=s), museb.theorem2_reproduce()

    def check(self, out) -> str | None:
        outcome, sweep, theorem2 = out
        if sweep.failures != sweep.pairs:
            return f"closure held on {sweep.pairs - sweep.failures} of {sweep.pairs} pairs"
        if not theorem2.passed:
            return "theorem2_reproduce did not pass"
        if outcome.converged_to_zero:
            return "search claims a third unbiased basis"
        if outcome.best_cost != museb.unbiasedness_penalty(outcome.best_candidate):
            return "best_cost is not the penalty of best_candidate"
        return None

    @staticmethod
    def quality(out) -> float:
        return out[0].best_cost

    def close(self) -> None:
        pass


WORKLOADS = {"grow_c24": GrowC24, "cli_mub53": CliMub53, "probe_search": ProbeSearch}
