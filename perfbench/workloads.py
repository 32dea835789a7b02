"""The benchmark's workloads: fixed, ordered lists of propmod CLI calls.

An op is one ``propmod.cli.main(argv)`` call with ``--format json``.  Each
op carries a stable ``id`` (the key of its recorded output digest), the
``verb`` bucket its time is charged to, and, on a b ladder, its ``rung``.

``build(name, seed)`` is the workload generator.  Seed 0 gives the
reference inputs written out below.  Any other seed draws new coefficients
with the same signs as the reference ones, magnitudes inside the reference
band, and the same b ladder, so a claim can be re-checked on inputs that
were not used while making it.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

WORKLOADS = ("strip", "positive", "general", "corpus")

# f, g of the mixed-sign (strip) family.  The ladder avoids multiples of
# f(3, 1) = 7: there the strip period shrinks from b to b/7 and the rung
# would be cheaper than a smaller b, hiding the growth in b.
STRIP = ((3, -2), (1, -3))
STRIP_LADDER = (30, 50, 60)
STRIP_VERBS = ("gens", "frobenius", "apery", "properties")

POSITIVE = ((7, 5), (5, 7))
POSITIVE_LADDER = (500, 1000, 1500)
POSITIVE_VERBS = ("gens", "frobenius", "properties")

GENERAL_2D_LADDER = (8, 12, 16)
GENERAL_3D = ((5, 2, 1), (3, 1, -4))
GENERAL_3D_LADDER = (4, 6)

# DiophSystem JSON descriptions for the `solve` verb.
SYSTEMS = (
    {"p": 4, "equalities": [[[3, 1, -4, 2], 0]],
     "congruences": [[[5, 2, 1, 7], 0, 9]]},
    {"p": 4, "equalities": [[[3, -2, 5, -1], 7]],
     "congruences": [[[1, 4, 2, 3], 3, 11]]},
    {"p": 3, "equalities": [[[3, 1, -4], 5]],
     "congruences": [[[5, 2, 1], 2, 13]]},
    {"p": 3, "congruences": [[[5, 2, 1], 0, 17]],
     "inequalities": [[[3, 1, -4], 2]]},
)

# The frozen corpus, drawn from this band: three sign branches of g.
CORPUS_FILE = Path("tests") / "corpus.py"
CORPUS_BRANCHES = ("POSITIVE", "MIXED", "NONPOSITIVE")
CORPUS_COEFF = 15
CORPUS_B = (2, 12)
CORPUS_POINT = "9,1"
CORPUS_WINDOW = "60,60"


def _vec(v) -> str:
    return ",".join(str(c) for c in v)


def _ineq_argv(f, g, b) -> list[str]:
    return ["--f", _vec(f), "--g", _vec(g), "--b", str(b), "--format", "json"]


def _op(op_id: str, verb: str, argv: list[str], f, g, b, rung=None) -> dict:
    return {"id": op_id, "verb": verb, "argv": argv,
            "input": {"f": list(f), "g": list(g), "b": b}, "rung": rung}


def _ladder_ops(family: str, f, g, ladder, verbs) -> list[dict]:
    return [_op(f"{family}:{b}:{verb}", verb, [verb] + _ineq_argv(f, g, b),
                f, g, b, rung=b)
            for b in ladder for verb in verbs]


def general_op(f, g, b, rung=None) -> dict:
    """``gens --method general``; the id names the dimension and b."""
    return _op(f"general:{len(f)}d:{b}", "general",
               ["gens", "--method", "general"] + _ineq_argv(f, g, b), f, g, b, rung)


def _general_ops(f2, g2, f3, g3, systems) -> list[dict]:
    ops = [general_op(f2, g2, b, rung=b) for b in GENERAL_2D_LADDER]
    ops += [general_op(f3, g3, b) for b in GENERAL_3D_LADDER]
    for i, system in enumerate(systems):
        # the system file is written next to the run; the worker fills in
        # the path placeholder
        ops.append({"id": f"solve:{i}", "verb": "solve",
                    "argv": ["solve", "--input", "{system}", "--format", "json"],
                    "system": system, "rung": None})
    return ops


def _corpus_ops(branches: dict) -> list[dict]:
    ops = []
    i = 0
    for branch in CORPUS_BRANCHES:
        for f, g, b in branches[branch]:
            verbs = [("gens", ["gens"]),
                     ("membership", ["membership", "--point", CORPUS_POINT]),
                     ("oracle-members", ["oracle", "members", "--window", CORPUS_WINDOW]),
                     ("oracle-gens", ["oracle", "gens", "--window", CORPUS_WINDOW])]
            if branch != "NONPOSITIVE":
                verbs += [("frobenius", ["frobenius"]), ("properties", ["properties"])]
            if branch == "MIXED":
                verbs.append(("apery", ["apery"]))
            for key, head in verbs:
                ops.append(_op(f"corpus:{i}:{key}", head[0], head + _ineq_argv(f, g, b),
                               f, g, b))
            i += 1
    return ops


def load_corpus(root: Path) -> dict:
    """The corpus lists of tests/corpus.py, read as literals without importing it."""
    tree = ast.parse((root / CORPUS_FILE).read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in CORPUS_BRANCHES):
            found[node.targets[0].id] = [tuple(e) for e in ast.literal_eval(node.value)]
    missing = set(CORPUS_BRANCHES) - set(found)
    if missing:
        raise ValueError(f"{CORPUS_FILE} lacks {sorted(missing)}")
    return found


# ---- held-out draws -------------------------------------------------------

def _draw(rng: random.Random, ref, lo: int, hi: int) -> tuple[int, ...]:
    """Same sign per coordinate as ``ref``, magnitude in [lo, hi]; zeros stay."""
    return tuple(0 if c == 0 else (1 if c > 0 else -1) * rng.randint(lo, hi)
                 for c in ref)


def _band(*vectors) -> tuple[int, int]:
    mags = [abs(c) for v in vectors for c in v if c]
    return min(mags), max(mags)


def _draw_family(rng, ref):
    lo, hi = _band(*ref)
    return tuple(_draw(rng, v, lo, hi) for v in ref)


def _draw_system(rng, system: dict) -> dict:
    # a coefficient keeps its sign and never grows past its reference
    # magnitude, which keeps the solver's certified bound no larger
    out = {"p": system["p"]}
    for key in ("equalities", "congruences", "inequalities"):
        if key in system:
            out[key] = [[[_draw(rng, [c], 1, abs(c))[0] for c in row[0]]] + row[1:]
                        for row in system[key]]
    return out


def _nonzero(rng, lo, hi):
    while True:
        v = (rng.randint(lo, hi), rng.randint(lo, hi))
        if any(v):
            return v


def _draw_corpus(rng, reference: dict) -> dict:
    """Fresh entries, as many per sign branch of g as the frozen corpus has."""
    m, (b_lo, b_hi) = CORPUS_COEFF, CORPUS_B
    out = {branch: [] for branch in CORPUS_BRANCHES}
    for branch in CORPUS_BRANCHES:
        for _ in reference[branch]:
            f = _nonzero(rng, -m, m)
            if branch == "POSITIVE":
                g = (rng.randint(1, m), rng.randint(1, m))
            elif branch == "MIXED":
                g = (rng.randint(1, m), rng.randint(-m, 0))
                if rng.random() < 0.5:
                    g = g[::-1]
            else:
                g = _nonzero(rng, -m, 0)
            out[branch].append((f, g, rng.randint(b_lo, b_hi)))
    return out


def build(name: str, seed: int, root: Path) -> list[dict]:
    """The op list of workload ``name``; seed 0 gives the reference inputs."""
    rng = random.Random(f"{name}:{seed}")
    held_out = seed != 0
    if name == "strip":
        f, g = _draw_family(rng, STRIP) if held_out else STRIP
        return _ladder_ops("strip", f, g, STRIP_LADDER, STRIP_VERBS)
    if name == "positive":
        f, g = _draw_family(rng, POSITIVE) if held_out else POSITIVE
        return _ladder_ops("positive", f, g, POSITIVE_LADDER, POSITIVE_VERBS)
    if name == "general":
        if not held_out:
            return _general_ops(*STRIP, *GENERAL_3D, SYSTEMS)
        f2, g2 = _draw_family(rng, STRIP)
        f3, g3 = _draw_family(rng, GENERAL_3D)
        return _general_ops(f2, g2, f3, g3, [_draw_system(rng, s) for s in SYSTEMS])
    if name == "corpus":
        reference = load_corpus(root)
        return _corpus_ops(_draw_corpus(rng, reference) if held_out else reference)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
