"""The four workloads: seeded inputs, the operations on them, and their checks.

Every operation is one call of ``plsfair.cli.main(argv)``, the function the
``plsfair`` console script runs. A workload is a fixed multiset of operation
kinds (variant, partner count, model, command); the seed only draws the
numbers inside the inputs (ratings, capital splits, model parameters, draws)
and the order of the operations. Runs with different seeds therefore do the
same amount of work, which keeps their figures comparable.

Why each workload is in the benchmark:

``allocate_cli``
    A stream of contract files over all five variants, d from 2 to 64, and
    the closed-form ``gbm``, ``two_point`` and ``fixed_rho`` models, mixing
    ``allocate``, ``allocate --json`` and ``verify --gammas``. Every layer
    runs once per command and no work is shared between commands, so a
    per-command cost (argument parsing, contract parsing, provenance or
    tracing) shows here. It never reaches Monte Carlo.
``sweep_grid``
    ``sweep`` over contracts of moderate d in every variant: one contract at
    2001 values of rho, written as CSV to a file. The ratio engine runs in
    batch and CSV formatting dominates, the opposite of ``allocate_cli``.
``mc_simulate``
    GBM ``risk --simulate --json`` and ``allocate --simulate --json`` with a
    fixed path count, cycling over a few simulation seeds. Draws and moment
    reductions take almost all of the time.
``empirical_file``
    ``risk --model empirical --data FILE`` on draws files written during
    set-up: the per-line parse and the per-draw validation of the risk
    engine, which no other workload reaches.

Checks compare each output with the verification oracle
(``solve_fairness_system`` / ``solve_wakalah_system``, Gaussian elimination
on the raw fairness equations) and with risk figures the harness computes
itself, never with the program's own closed-form ratios.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from plsfair.contracts import WakalahTerms
from plsfair.verification import solve_fairness_system, solve_wakalah_system

MUDHARABAH = ("fair_mudharabah", "cfair_mudharabah")
SELF_MANAGED = "musharakah_self_managed"
EXTERNAL = "musharakah_external_mudharib"
WAKALAH = "musharakah_wakalah"
MUSHARAKAH = (SELF_MANAGED, EXTERNAL, WAKALAH)

#: Tolerance on gammas in full precision (--json, CSV): the oracle and the
#: closed forms agree far below it for d <= 64.
GAMMA_TOL = 1e-9
#: Text output rounds to 4 significant digits, so at most 5e-4 relative.
TEXT_REL_TOL = 6e-4
#: Monte Carlo estimates must lie within this many standard errors of the
#: closed form; a false alarm at 6 SE has odds of about 1 in 5e8.
MC_SE_BOUND = 6.0
#: The program and the harness reduce the same float64 draws.
EMPIRICAL_REL_TOL = 1e-12

SWEEP_STEPS = 2001
MC_PATHS = 1_000_000


#: Checks one operation's stdout and CSV text; raises CheckError on a mismatch.
Check = Callable[[str, str | None], None]


class CheckError(Exception):
    """An operation's output disagrees with the reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Op:
    """One call of ``main(argv)``: its expected exit code and output check."""

    argv: list[str]
    items: float
    expect_code: int
    check: Check
    csv: Path | None = None

    def problem(self, code: int | None, stdout: str, stderr: str, csv_text: str | None) -> str | None:
        """Why the operation failed, or None when its exit code and output are right."""
        if code != self.expect_code:
            return f"exit code {code}, expected {self.expect_code}: {stderr.strip()[-400:]}"
        try:
            self.check(stdout, csv_text)
        except CheckError as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        return None


# ---------------------------------------------------------------------------
# References computed by the harness


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gbm_reference(mu: float, sigma: float, T: float, L: float) -> tuple[float, float]:
    """(E[(R_T-L)^+], E[(L-R_T)^+]) of log-normal R_T: Black-Scholes call and put."""
    vol = sigma * math.sqrt(T)
    growth = math.exp(mu * T)
    d2 = (mu * T - 0.5 * sigma * sigma * T) / vol
    e_profit = L * (growth * _phi(d2 + vol) - _phi(d2))
    e_loss = L * (_phi(-d2) - growth * _phi(-d2 - vol))
    return e_profit, e_loss


def model_reference(model: dict, amount: float | None) -> tuple[float, float]:
    """(e_profit, e_loss) of a closed-form model section."""
    kind = model["kind"]
    if kind == "gbm":
        return gbm_reference(model["mu"], model["sigma"], model["T"], amount)
    if kind == "two_point":
        return (model["beta"] * (model["r_plus"] - amount),
                (1.0 - model["beta"]) * (amount - model["r_minus"]))
    e_profit = model["delta"] / (1.0 - model["rho"])
    return e_profit, model["rho"] * e_profit


def oracle(doc: dict, e_profit: float, e_loss: float) -> tuple[list[float], float | None]:
    """Gammas (and wakalah periodic payment) from the raw fairness equations."""
    variant, ratings = doc["variant"], doc["ratings"]
    if variant in MUDHARABAH:
        return list(solve_fairness_system(ratings, (1.0, 0.0), e_profit, e_loss)), None
    if variant == SELF_MANAGED:
        return list(solve_fairness_system(ratings, doc["capital"], e_profit, e_loss)), None
    if variant == EXTERNAL:
        capital = doc["capital"] + [0.0]
        return list(solve_fairness_system(ratings, capital, e_profit, e_loss)), None
    terms = WakalahTerms(**doc["wakalah"])
    gammas, p = solve_wakalah_system(ratings, doc["capital"], e_profit, e_loss, terms)
    return list(gammas), p


# ---------------------------------------------------------------------------
# Input generation


def _shares(rng: random.Random, n: int) -> list[float]:
    raw = [rng.uniform(0.5, 2.0) for _ in range(n)]
    total = math.fsum(raw)
    return [v / total for v in raw]


def make_contract(rng: random.Random, variant: str, d: int, model_kind: str | None) -> dict:
    """A schema-1 contract document with seeded ratings, capital and model."""
    if variant == "fair_mudharabah":
        c = round(rng.uniform(1.0, 10.0), 4)
        ratings = [c, c]
    else:
        ratings = [round(rng.uniform(1.0, 10.0), 4) for _ in range(d)]
    doc: dict = {"schema": 1, "variant": variant, "ratings": ratings}
    if variant == SELF_MANAGED:
        doc["capital"] = _shares(rng, d)
    elif variant in (EXTERNAL, WAKALAH):
        doc["capital"] = _shares(rng, d - 1)
    if variant == WAKALAH:
        doc["wakalah"] = {"r": round(rng.uniform(0.0, 0.1), 4),
                          "T": round(rng.uniform(1.0, 10.0), 3),
                          "k": rng.randint(1, 12)}
    if model_kind == "gbm":
        doc["model"] = {"kind": "gbm", "mu": round(rng.uniform(0.02, 0.3), 4),
                        "sigma": round(rng.uniform(0.1, 0.5), 4),
                        "T": round(rng.uniform(0.5, 5.0), 3)}
        doc["capital_amount"] = round(rng.uniform(50.0, 500.0), 2)
    elif model_kind == "two_point":
        amount = round(rng.uniform(50.0, 500.0), 2)
        beta = round(rng.uniform(0.55, 0.95), 4)
        up = rng.uniform(0.1, 1.0)
        down = rng.uniform(0.0, 0.5) * min(1.0, beta * up / (1.0 - beta))
        doc["model"] = {"kind": "two_point", "beta": beta,
                        "r_plus": round(amount * (1.0 + up), 4),
                        "r_minus": round(amount * (1.0 - down), 4)}
        doc["capital_amount"] = amount
    elif model_kind == "fixed_rho":
        doc["model"] = {"kind": "fixed_rho", "rho": round(rng.uniform(0.05, 0.95), 6),
                        "delta": round(rng.uniform(1.0, 100.0), 4)}
    return doc


def _write_contract(workdir: Path, index: int, doc: dict) -> Path:
    path = workdir / f"contract{index:03d}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Output checks


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_tol


def _check_gammas(got: list[float], want: list[float]) -> None:
    require(len(got) == len(want), f"{len(got)} gammas, oracle has {len(want)}")
    worst = max(abs(g - w) for g, w in zip(got, want))
    require(worst <= GAMMA_TOL, f"gammas differ from the oracle by {worst:.3g}")
    require(abs(math.fsum(got) - 1.0) <= GAMMA_TOL, "gammas leave the simplex")


def _check_allocate_text(want: list[float], p: float | None) -> Check:
    def check(stdout: str, _csv: str | None) -> None:
        gammas = [float(line.split("gamma = ")[1].split()[0])
                  for line in stdout.splitlines() if line.startswith("partner ")]
        require(len(gammas) == len(want), f"{len(gammas)} gamma lines, oracle has {len(want)}")
        for g, w in zip(gammas, want):
            require(_close(g, w, TEXT_REL_TOL, 1e-12), f"printed gamma {g} but oracle has {w}")
        if p is not None:
            printed = float(stdout.split(": p = ")[1].split()[0])
            require(_close(printed, p, TEXT_REL_TOL, 1e-12), f"printed p {printed}, oracle {p}")
        require(stdout.rstrip().endswith("-> OK"), "verification line does not read OK")
    return check


def _check_allocate_json(doc: dict, reference: tuple[float, float],
                         se_bound: float | None = None) -> Check:
    """--json allocation: gammas against the oracle on the printed profile.

    The printed profile must match ``reference``: to ``GAMMA_TOL`` in rho for
    a closed form, or within ``se_bound`` standard errors for a simulation.
    """
    def check(stdout: str, _csv: str | None) -> None:
        out = json.loads(stdout)
        if se_bound is None:
            ref_rho = reference[1] / reference[0]
            require(abs(out["rho"] - ref_rho) <= GAMMA_TOL,
                    f"rho {out['rho']} but the reference has {ref_rho}")
        else:
            _check_simulated(out, reference, se_bound)
        want, p = oracle(doc, out["e_profit"], out["e_loss"])
        _check_gammas(out["gammas"], want)
        if p is not None:
            require(_close(out["periodic_payment"], p, 1e-9, 1e-12),
                    f"periodic payment {out['periodic_payment']}, oracle {p}")
        require(out["verification"]["passed"] is True, "verification did not pass")
    return check


def _check_simulated(out: dict, reference: tuple[float, float], bound: float) -> None:
    e_profit, e_loss = reference
    for key, want, se in (("e_profit", e_profit, out["se_profit"]),
                          ("e_loss", e_loss, out["se_loss"]),
                          ("rho", e_loss / e_profit, out["se_rho"])):
        require(se > 0.0 and abs(out[key] - want) <= bound * se,
                f"{key} {out[key]} is more than {bound} SE ({se:.3g}) from {want}")


def _check_verify(passed: bool) -> Check:
    word = "PASS" if passed else "FAIL"

    def check(stdout: str, _csv: str | None) -> None:
        require(stdout.rstrip().endswith(f"-> {word}"), f"verify did not print {word}")
    return check


# ---------------------------------------------------------------------------
# Workloads


def allocate_cli(seed: int, workdir: Path) -> list[Op]:
    """Closed-form allocate / allocate --json / verify over many contracts."""
    rng = random.Random(f"allocate_cli:{seed}")
    shapes = [("fair_mudharabah", 2), ("cfair_mudharabah", 2)]
    shapes += [(variant, d) for variant in MUSHARAKAH for d in (2, 4, 8, 16, 32, 64)]
    ops: list[Op] = []
    index = 0
    for variant, d in shapes:
        for model_kind in ("gbm", "two_point", "fixed_rho"):
            doc = make_contract(rng, variant, d, model_kind)
            path = str(_write_contract(workdir, index, doc))
            index += 1
            e_profit, e_loss = model_reference(doc["model"], doc.get("capital_amount"))
            want, p = oracle(doc, e_profit, e_loss)
            ops.append(Op(["allocate", path], 1, 0, _check_allocate_text(want, p)))
            ops.append(Op(["allocate", path, "--json"], 1, 0,
                          _check_allocate_json(doc, (e_profit, e_loss))))
            # One verify in three gets unfair gammas (or payment) and must fail.
            unfair = model_kind == "two_point"
            gammas = list(want)
            if unfair and p is None:
                gammas[0] += 1e-3
                gammas[1] -= 1e-3
            argv = ["verify", path, "--gammas", ",".join(repr(g) for g in gammas)]
            if p is not None:
                argv += ["--p", repr(p * 1.01 if unfair else p)]
            ops.append(Op(argv, 1, 3 if unfair else 0, _check_verify(not unfair)))
    rng.shuffle(ops)
    return ops


def _check_sweep(lo: float, hi: float, samples: dict[int, list[float]]) -> Check:
    rhos = [f"{lo + (hi - lo) * i / (SWEEP_STEPS - 1):.12g}" for i in range(SWEEP_STEPS)]

    def check(stdout: str, text: str | None) -> None:
        require(text is not None, "sweep wrote no CSV file")
        rows = list(csv.reader(io.StringIO(text)))
        width = len(next(iter(samples.values())))
        require(rows[0] == ["rho"] + [f"gamma_{j + 1}" for j in range(width)], "bad CSV header")
        require(len(rows) == SWEEP_STEPS + 1, f"{len(rows) - 1} CSV rows, expected {SWEEP_STEPS}")
        for i, row in enumerate(rows[1:]):
            require(row[0] == rhos[i], f"row {i}: rho {row[0]}, expected {rhos[i]}")
            gammas = [float(v) for v in row[1:]]
            require(abs(math.fsum(gammas) - 1.0) <= GAMMA_TOL, f"row {i} leaves the simplex")
            if i in samples:
                _check_gammas(gammas, samples[i])
    return check


def sweep_grid(seed: int, workdir: Path) -> list[Op]:
    """sweep over 2001 rho values per contract, CSV to a file."""
    rng = random.Random(f"sweep_grid:{seed}")
    # Partner counts spread over 2..12, so that operation times spread too.
    shapes = [("fair_mudharabah", 2), ("cfair_mudharabah", 2)]
    shapes += [(SELF_MANAGED, d) for d in (3, 5, 7, 9, 11)]
    shapes += [(EXTERNAL, d) for d in (4, 6, 8, 10, 12)]
    shapes += [(WAKALAH, d) for d in (3, 6, 9, 12)]
    out = workdir / "sweep.csv"
    ops: list[Op] = []
    for index, (variant, d) in enumerate(shapes):
        doc = make_contract(rng, variant, d, None)
        path = str(_write_contract(workdir, index, doc))
        lo = round(rng.uniform(0.0, 0.3), 3)
        hi = round(rng.uniform(0.7, 1.0), 3)
        picks = {0, SWEEP_STEPS - 1} | {rng.randrange(SWEEP_STEPS) for _ in range(3)}
        samples = {}
        for i in picks:
            rho = lo + (hi - lo) * i / (SWEEP_STEPS - 1)
            samples[i] = oracle(doc, 1.0, rho)[0]
        argv = ["sweep", path, "--rho-from", repr(lo), "--rho-to", repr(hi),
                "--steps", str(SWEEP_STEPS), "-o", str(out)]
        ops.append(Op(argv, SWEEP_STEPS, 0, _check_sweep(lo, hi, samples), csv=out))
    rng.shuffle(ops)
    return ops


def mc_simulate(seed: int, workdir: Path) -> list[Op]:
    """GBM Monte Carlo through risk --simulate and allocate --simulate."""
    rng = random.Random(f"mc_simulate:{seed}")
    mc_seeds = [rng.randrange(2**63) for _ in range(2)]
    shapes = [("cfair_mudharabah", 2), (SELF_MANAGED, 4), (EXTERNAL, 4), (WAKALAH, 4)]
    ops: list[Op] = []
    for index, (variant, d) in enumerate(shapes):
        doc = make_contract(rng, variant, d, "gbm")
        path = str(_write_contract(workdir, index, doc))
        model, amount = doc["model"], doc["capital_amount"]
        reference = gbm_reference(model["mu"], model["sigma"], model["T"], amount)
        for mc_seed in mc_seeds:
            common = ["--simulate", "--paths", str(MC_PATHS), "--seed", str(mc_seed), "--json"]
            risk = ["risk", "--model", "gbm", "--mu", repr(model["mu"]),
                    "--sigma", repr(model["sigma"]), "--T", repr(model["T"]),
                    "--L", repr(amount)]
            ops.append(Op(risk + common, MC_PATHS, 0, _check_risk_simulated(reference)))
            ops.append(Op(["allocate", path] + common, MC_PATHS, 0,
                          _check_allocate_json(doc, reference, MC_SE_BOUND)))
    rng.shuffle(ops)
    return ops


def _check_risk_simulated(reference: tuple[float, float]) -> Check:
    def check(stdout: str, _csv: str | None) -> None:
        out = json.loads(stdout)
        _check_simulated(out, reference, MC_SE_BOUND)
        require(out["viable"] is True, "a GBM with positive drift must be viable")
    return check


#: Draws per file: evenly spread sizes, so that operation times spread too.
EMPIRICAL_SIZES = tuple(range(40_000, 160_001, 10_000))


def empirical_file(seed: int, workdir: Path) -> list[Op]:
    """risk --model empirical on seeded draws files."""
    rng = random.Random(f"empirical_file:{seed}")
    gen = np.random.default_rng(rng.randrange(2**63))
    ops: list[Op] = []
    for index, n in enumerate(EMPIRICAL_SIZES):
        amount = round(rng.uniform(50.0, 500.0), 2)
        m, s = rng.uniform(0.02, 0.1), rng.uniform(0.1, 0.3)
        draws = amount * np.exp(gen.normal(m, s, n))
        eol = "\r\n" if index % 4 == 3 else "\n"
        lines = [repr(v) for v in draws.tolist()]
        if index % 2 == 0:
            lines.insert(0, "R_T")
        path = workdir / f"draws{index:02d}.txt"
        path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
        profits = np.maximum(draws - amount, 0.0)
        losses = np.maximum(amount - draws, 0.0)
        reference = {
            "e_profit": float(profits.mean()),
            "e_loss": float(losses.mean()),
            "se_profit": float(profits.std(ddof=1)) / math.sqrt(n),
            "se_loss": float(losses.std(ddof=1)) / math.sqrt(n),
        }
        viable = reference["e_loss"] <= reference["e_profit"]
        argv = ["risk", "--model", "empirical", "--data", str(path), "--L", repr(amount), "--json"]
        ops.append(Op(argv, n, 0 if viable else 2, _check_empirical(reference)))
    rng.shuffle(ops)
    return ops


def _check_empirical(reference: dict[str, float]) -> Check:
    def check(stdout: str, _csv: str | None) -> None:
        out = json.loads(stdout)
        for key, want in reference.items():
            require(_close(out[key], want, EMPIRICAL_REL_TOL),
                    f"{key} {out[key]} but numpy gives {want}")
        rho = reference["e_loss"] / reference["e_profit"]
        require(_close(out["rho"], rho, EMPIRICAL_REL_TOL), f"rho {out['rho']}, numpy {rho}")
    return check


WORKLOADS = {
    "allocate_cli": allocate_cli,
    "sweep_grid": sweep_grid,
    "mc_simulate": mc_simulate,
    "empirical_file": empirical_file,
}

#: The calibration kernel that slows like each workload (see ``calibration.py``):
#: argument parsing, CSV formatting and text parsing run in the interpreter;
#: Monte Carlo runs in numpy.
KERNEL = {
    "allocate_cli": "python",
    "sweep_grid": "python",
    "mc_simulate": "numpy",
    "empirical_file": "python",
}
