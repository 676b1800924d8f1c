"""Per-layer metrics of one op, computed from its spans.

Counts marked computed are derived from shapes, sizes and call counts, not
from clocks, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

from spans import summarize

# Metrics that must read the same on every op of a run.
COMPUTED = (
    "verify.check_mu_pair.calls",
    "verify.checks_run",
    "verify.svd_count",
    "verify.gram_gflop",
    "compose.tensor_families.out_mb",
    "familyfile.file_mb",
    "construct.c23_family.calls",
    "search.unbiasedness_penalty.calls",
)

TIMED = ("verify.check_museb_set", "verify.check_sebk", "verify.check_mu_pair",
         "compose.tensor_families", "familyfile.save_family_set",
         "familyfile.load_family_set", "construct.mub_prime", "construct.c23_family",
         "search.third_basis_search", "search.unbiasedness_penalty",
         "search.closure_sweep", "trio.theorem2_reproduce")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def op_layers(spans: list[list]) -> dict[str, float]:
    """Every per-layer metric of one op except those needing a whole run."""
    agg = summarize(spans)
    incl, self_s, calls = agg["incl"], agg["self"], agg["calls"]

    def infos(name):  # spans that raised carry no info
        return [sp[4] for sp in spans if sp[0] == name and sp[4]]

    out = {f"{name}.s": incl.get(name, 0.0) for name in TIMED}
    shapes = [i["shape"] for i in infos("verify.check_mu_pair")]
    gram_flop = sum(8 * n * k * m for n, k, m in shapes)
    checks = 0
    for name, parent, _, _, info in spans:
        if info and "checks" in info and (parent < 0 or not spans[parent][0].startswith("verify.")):
            checks += info["checks"]
    saved = sum(i["bytes"] for i in infos("familyfile.save_family_set"))
    loaded = sum(i["bytes"] for i in infos("familyfile.load_family_set"))
    pairs = sum(i["pairs"] for i in infos("search.closure_sweep"))
    cli_by_cmd = {"generate": 0.0, "verify": 0.0}
    for name, parent, t0, t1, info in spans:
        if name == "cli.main" and info and info["cmd"] in cli_by_cmd:
            cli_by_cmd[info["cmd"]] += t1 - t0

    out.update({
        "verify.check_mu_pair.calls": calls.get("verify.check_mu_pair", 0),
        "verify.checks_run": checks,
        "verify.svd_count": sum(i["n"] for i in infos("verify.check_sebk")),
        "verify.gram_gflop": gram_flop / 1e9,
        "verify.gram_gflops": _rate(gram_flop / 1e9, self_s.get("verify.check_mu_pair", 0.0)),
        "compose.tensor_families.out_mb":
            sum(i["bytes"] for i in infos("compose.tensor_families")) / 1e6,
        "familyfile.file_mb": saved / 1e6,
        "familyfile.save_mb_per_s": _rate(saved / 1e6, out["familyfile.save_family_set.s"]),
        "familyfile.load_mb_per_s": _rate(loaded / 1e6, out["familyfile.load_family_set.s"]),
        "construct.c23_family.calls": calls.get("construct.c23_family", 0),
        "search.unbiasedness_penalty.calls": calls.get("search.unbiasedness_penalty", 0),
        "search.penalty_evals_per_s": _rate(calls.get("search.unbiasedness_penalty", 0),
                                            out["search.unbiasedness_penalty.s"]),
        "search.closure_pairs_per_s": _rate(pairs, out["search.closure_sweep.s"]),
        "cli.generate.s": cli_by_cmd["generate"],
        "cli.verify.s": cli_by_cmd["verify"],
        "cli.self_s": sum((v for k, v in self_s.items() if k.startswith("cli.")), 0.0),
    })
    return out


def gram_shape(spans: list[list]) -> tuple[int, int, int] | None:
    """The (n, d d', m) shape of the op's largest cross Gram, if it ran one."""
    shapes = [sp[4]["shape"] for sp in spans if sp[0] == "verify.check_mu_pair" and sp[4]]
    return max(shapes, key=lambda s: s[0] * s[1] * s[2]) if shapes else None
