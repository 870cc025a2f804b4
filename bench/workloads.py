"""The benchmark's workloads: seeded inputs, CLI invocations and the pinned
expected verdict of every check.

A workload is a list of CLI invocations, each run in its own cold process.
The seed picks the gevrey exponent ``s``, the dilation factor ``p`` and the
strictly log-convex ``table`` documents; they reach the program only as
argv and as spec files under the run's ``inputs/`` directory.  Every
expected verdict follows from how the inputs were generated, and no check
is expected to be inconclusive.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

CONFIRMED = "confirmed"
REFUTED = "refuted"

DEFAULT_SEED = 1

#: gevrey exponents the seed chooses from
GEVREY_S = ("1/2", "2/3", "3/4", "1", "4/3", "3/2", "2")
#: dilation factors the seed chooses from (alpha, thm61, seq-compare)
P_CHOICES = (2, 3, 4)
#: table documents have this many log values (indices 0..TABLE_LEN-1)
TABLE_LEN = 61

WHY = {
    "battery": "report-all with seeded extra specs: the real CI mix, the only "
    "workload where cli orchestration and report emission show",
    "oracle": "exact-rational subcommands (ckn, alpha, ineq62, thm61): Fraction "
    "convolutions and rendering, almost no interval work",
    "extremal": "bang on constant and a seeded gevrey(s): LogReal arithmetic on "
    "memoised values with a high memo hit ratio",
    "sweep": "cold sequence sweeps past the log-factorial seam at n = 20000, "
    "iterated-log dilation, paper8 and seeded tables: memo misses",
}

#: report-all's own 57 checks, in order; names do not depend on --n-max
BATTERY_BASE = (
    ["ckn-bound", "ckn-oracle-equivalence"]
    + ["root-series-magnitude", "root-series-bound", "factorial-inequality"] * 2
    + [
        "log-convex-M[constant]",
        "log-convex-Mprime[gevrey(s=1)]",
        "log-convex-M[iterated_log(k=1)]",
        "log-convex-M[iterated_log(k=2)]",
        "log-convex-M[paper8]",
        "log-convex-Mprime[paper8]",
        "monotone[paper8]",
    ]
    + [
        f"derivation-closed[{label}]"
        for label in ("constant", "gevrey(s=1)", "iterated_log(k=1)",
                      "iterated_log(k=2)", "paper8")
    ]
    + [
        "quasianalytic[constant]",
        "quasianalytic[gevrey(s=1)]",
        "quasianalytic[paper8]",
        "transform-quasianalytic[iterated_log(k=1), p=2]",
        "transform-quasianalytic[iterated_log(k=2), p=2]",
        "transform-quasianalytic[iterated_log(k=2), p=3]",
        "transform-quasianalytic[paper8, p=3]",
    ]
    + [
        f"inclusion[{label} vs transformed({label}, p={p})]"
        for label in ("constant", "gevrey(s=1)", "iterated_log(k=1)",
                      "iterated_log(k=2)", "paper8")
        for p in (2, 3)
    ]
    + ["inclusion[gevrey(s=1) vs constant]"]
    + [
        f"bang-{part}[{label}]"
        for label in ("constant", "gevrey(s=1)")
        for part in ("lower-bounds", "membership", "sharpness")
    ]
    + ["substitution-coefficients[gevrey(s=1)]"] * 6
    + ["substitution-coefficients[paper8]"] * 6
    + ["substitution-assembly[gevrey(s=1)]"]
)

#: SHA-256 of one repeat's report bytes at DEFAULT_SEED (full depth)
PINNED_DIGESTS = {
    "battery": "423f2dcc0d8da932e43b216561f3f4e09bad83e3a4a08e74ce7b0175438eaca8",
    "oracle": "21dd41c6857e54b2514422ba55e5ad513c1cd045854574be7ca68ab8eb6a8f08",
    "extremal": "662aad3ea498b437b7ac31286f16d8393d12dbbf2f48f2fb85f121baa483d01a",
    "sweep": "40f4d7bfb07da97a8c7cb22cafff49a39a9b781a052635ff1361316e3d42a1d3",
}


@dataclass(frozen=True)
class Invocation:
    """One cold CLI process: its arguments (``--out`` is added per run), the
    checks its report must hold, in order, and its expected exit code."""

    args: tuple[str, ...]
    expect: tuple[tuple[str, str], ...]
    exit_code: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    choices: dict
    invocations: tuple[Invocation, ...]


def _spec_doc(family: str, params: dict | None = None, precision: int = 80) -> dict:
    return {"version": 1, "family": family, "params": params or {}, "precision": precision}


def _table_values(rng: random.Random) -> list[str]:
    """Exact decimal log values 0 = L_0 < L_1 < ... with second differences
    of at least 1/100: strictly increasing and strictly log-convex."""
    step = rng.randint(10, 99)  # in hundredths
    value = 0
    values = [value]
    for _ in range(1, TABLE_LEN):
        value += step
        values.append(value)
        step += rng.randint(1, 50)
    return [f"{v // 100}.{v % 100:02d}" for v in values]


def _write(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return f"inputs/{path.name}"


def _gevrey_label(s: str) -> str:
    return f"gevrey(s={Fraction(s)})"


def build(name: str, seed: int, inputs: Path, smoke: bool = False) -> Workload:
    """Write the seeded spec files under ``inputs`` and return the workload.

    ``smoke`` shrinks every depth so a whole repeat takes a few seconds; it
    is for the benchmark's own tests.
    """
    if name not in WHY:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")
    rng = random.Random(f"{name}:{seed}")
    builder = {
        "battery": _battery,
        "oracle": _oracle,
        "extremal": _extremal,
        "sweep": _sweep,
    }[name]
    choices, invocations = builder(rng, inputs, smoke)
    return Workload(name=name, seed=seed, choices=choices, invocations=tuple(invocations))


def _battery(rng, inputs: Path, smoke: bool):
    s_values = rng.sample(GEVREY_S, 2)
    args = ["report-all", "--n-max", "2" if smoke else "8", "--precision", "20"]
    expect = [(check, CONFIRMED) for check in BATTERY_BASE]
    for i, s in enumerate(s_values):
        args += ["--spec", _write(inputs / f"gevrey_{i}.json", _spec_doc("gevrey", {"s": s}))]
        label = _gevrey_label(s)
        expect += [
            (f"monotone[{label}]", CONFIRMED),
            (f"log-convex-M[{label}]", CONFIRMED),
            (f"quasianalytic[{label}]", CONFIRMED),
        ]
    return {"s": s_values}, [Invocation(tuple(args), tuple(expect))]


def _oracle(rng, inputs: Path, smoke: bool):
    s = rng.choice(GEVREY_S)
    p = rng.choice(P_CHOICES)
    spec = _write(inputs / "gevrey.json", _spec_doc("gevrey", {"s": s}))
    k_ckn, n_ckn, n_alpha, n_ineq = (4, 8, 8, 6) if smoke else (24, 48, 40, 32)
    k_alpha = 4
    label = _gevrey_label(s)
    invocations = [
        Invocation(
            ("ckn", "--k-max", str(k_ckn), "--n-max", str(n_ckn)),
            (("ckn-bound", CONFIRMED), ("ckn-oracle-equivalence", CONFIRMED)),
        ),
        Invocation(
            ("alpha", "--p", str(p), "--k-max", str(k_alpha), "--n-max", str(n_alpha)),
            (("root-series-magnitude", CONFIRMED),)
            + (("root-series-bound", CONFIRMED),) * k_alpha
            + (("diag-derivative", CONFIRMED),),
        ),
        # the sweep's cost grows steeply with p, so p stays fixed here and
        # seeds do not change the amount of work
        Invocation(
            ("ineq62", "--p", "2", "--n-max", str(n_ineq)),
            (("factorial-inequality", CONFIRMED),),
        ),
        Invocation(
            ("thm61", "--spec", spec, "--p", str(p))
            + (("--n-max", "6", "--assembly-n-max", "4") if smoke else ()),
            ((f"substitution-coefficients[{label}]", CONFIRMED),
             (f"substitution-assembly[{label}]", CONFIRMED)),
        ),
    ]
    return {"s": s, "p": p}, invocations


def _extremal(rng, inputs: Path, smoke: bool):
    s = rng.choice(GEVREY_S)
    depth = ("--deriv-n-max", "3", "--n-max", "4") if smoke else (
        "--deriv-n-max", "12", "--n-max", "16")
    invocations = []
    for label, doc in (
        ("constant", _spec_doc("constant")),
        (_gevrey_label(s), _spec_doc("gevrey", {"s": s})),
    ):
        spec = _write(inputs / f"{doc['family']}.json", doc)
        invocations.append(Invocation(
            ("bang", "--spec", spec, "--precision", "20") + depth,
            tuple((f"bang-{part}[{label}]", CONFIRMED)
                  for part in ("lower-bounds", "membership", "sharpness")),
        ))
    return {"s": s}, invocations


def _sweep(rng, inputs: Path, smoke: bool):
    s = rng.choice(GEVREY_S)
    p = rng.choice(P_CHOICES)
    table_a, table_b = _table_values(rng), _table_values(rng)
    gevrey = _write(inputs / "gevrey.json", _spec_doc("gevrey", {"s": s}))
    il2 = _write(inputs / "iterated_log2.json", _spec_doc("iterated_log", {"k": 2}))
    paper8 = _write(inputs / "paper8.json", _spec_doc("paper8"))
    a = _write(inputs / "table_a.json", _spec_doc("table", {"log_values": table_a}, 30))
    a_dilated = _write(inputs / "table_a_dilated.json", _spec_doc(
        "transformed", {"p": p, "base": _spec_doc("table", {"log_values": table_a}, 30)}, 30))
    b = _write(inputs / "table_b.json", _spec_doc("table", {"log_values": table_b}, 30))
    n_top = TABLE_LEN - 1
    table = f"table(len={TABLE_LEN})"
    invocations = [
        # past the log-factorial seam: exact accumulation to 20000, log-gamma after
        Invocation(
            ("seq-check", "--spec", gevrey, "--checks", "quasianalytic",
             "--n-max", "60" if smoke else "20100", "--precision", "20"),
            ((f"quasianalytic[{_gevrey_label(s)}]", CONFIRMED),),
        ),
        Invocation(
            ("seq-transform", "--spec", il2, "--p", "3", "--n-max", "20" if smoke else "300"),
            (("transform-values[iterated_log(k=2), p=3]", CONFIRMED),
             ("transform-quasianalytic[iterated_log(k=2), p=3]", CONFIRMED)),
        ),
        # paper8 is not log-convex at small n: both convexity checks refute
        Invocation(
            ("seq-check", "--spec", paper8),
            (("monotone[paper8]", CONFIRMED),
             ("log-convex-M[paper8]", REFUTED),
             ("log-convex-Mprime[paper8]", REFUTED),
             ("derivation-closed[paper8]", CONFIRMED),
             ("quasianalytic[paper8]", CONFIRMED)),
            exit_code=1,
        ),
        # the primed ratio at n reads index n + 1
        Invocation(
            ("seq-show", "--spec", a, "--n-max", str(n_top - 1)),
            ((f"seq-show[{table}]", CONFIRMED),),
        ),
        # the dilation rule needs M monotone up to p * n-max
        Invocation(
            ("seq-compare", "--spec", a, "--other", a_dilated,
             "--n-max", str(n_top // p)),
            ((f"inclusion[{table} vs transformed({table}, p={p})]", CONFIRMED),),
        ),
        Invocation(
            ("seq-check", "--spec", b, "--checks", "monotone,log-convex,log-convex-prime",
             "--n-max", str(n_top)),
            ((f"monotone[{table}]", CONFIRMED),
             (f"log-convex-M[{table}]", CONFIRMED),
             (f"log-convex-Mprime[{table}]", CONFIRMED)),
        ),
    ]
    return {"s": s, "p": p, "table_a": table_a[:3] + ["..."]}, invocations
