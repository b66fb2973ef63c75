"""Command-line front end: risk profiles, allocations, sweeps, verification.

Subcommands::

    plsfair risk --model gbm --mu 0.1 --sigma 0.2 --T 1 --L 100
    plsfair allocate contract.json [--json]
    plsfair sweep contract.json --rho-from 0 --rho-to 1 --steps 101 -o out.csv
    plsfair verify contract.json --gammas 0.35,0.19,0.35,0.11 [--p 0.1]

A contract file is a JSON document::

    {
      "schema": 1,
      "variant": "cfair_mudharabah",
      "ratings": [2, 3],
      "capital": [1, 0],
      "wakalah": {"r": 0.0, "T": 1.0, "k": 4},
      "model": {"kind": "fixed_rho", "rho": 0.25, "delta": 8.0},
      "capital_amount": 100.0
    }

Every numeric field is a JSON number within the float range, never a
string or a boolean.
``capital`` may be omitted for the mudharabah variants (it is pinned to
(1, 0)); ``wakalah`` is required exactly for the wakalah variant. Model
kinds: ``gbm`` (mu, sigma, T), ``two_point`` (beta, r_plus, r_minus),
``empirical`` (path, relative to the contract file), ``fixed_rho`` (rho,
optional delta or e_profit). ``capital_amount`` supplies L and is required
for every kind except ``fixed_rho``. ``--simulate`` applies to ``gbm`` and
``two_point`` only.

Exit codes: 0 success, 1 input error or output that stdout refuses,
2 non-viable investment, 3 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import sys
import types
from collections.abc import Callable, Iterator, Sequence

from .contracts import (
    Allocation,
    ContractError,
    ContractSpec,
    NonViableError,
    RiskProfile,
    Variant,
    WakalahTerms,
    _as_float,
    _read_text,
)
from .ratios import AllocationPlan, _as_profile, allocate
from .risk import (
    EmpiricalSample,
    GbmParams,
    McConfig,
    TwoPointScenario,
    empirical_profile,
    gbm_closed_form,
    load_empirical_draws,
    monte_carlo_profile,
    two_point_profile,
)
from .verification import DEFAULT_TOL, VerificationReport, verify_allocation

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import TextIO  # not at run time: a closed-form process loads no typing

DEFAULT_PATHS = 1_000_000

#: Significant digits in sweep CSV cells; fixed so output is byte-stable.
CSV_DIGITS = 12
#: Sweep rows built and written per block: one write per row is slower, all rows at once grow with
#: --steps, and a block's float columns outweigh its text, so 4096-row blocks already raised peak memory.
_SWEEP_BLOCK_ROWS = 1024


# ---------------------------------------------------------------------------
# Contract file parsing


def contract_from_dict(doc: object) -> ContractSpec:
    """Parse and validate the contract part of a JSON document."""
    if not isinstance(doc, dict):
        raise ContractError(f"contract document must be a JSON object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != 1 or isinstance(schema, bool):
        if type(schema) is int:
            _as_float(schema, "field 'schema'")  # an integer beyond the float range is named, not echoed
        raise ContractError(f"unsupported schema {schema!r}; this tool reads schema 1")
    if "variant" not in doc:
        raise ContractError("contract document is missing 'variant'")
    try:
        variant = Variant(doc["variant"])
    except ValueError:
        known = ", ".join(v.value for v in Variant)
        raise ContractError(f"unknown variant {doc['variant']!r}; expected one of: {known}") from None
    ratings = doc.get("ratings")
    if not isinstance(ratings, list) or not ratings:
        raise ContractError("contract document needs a non-empty 'ratings' array")
    capital = doc.get("capital")
    if capital is not None and not isinstance(capital, list):
        raise ContractError("'capital' must be an array of fractions")
    terms = None
    raw_terms = doc.get("wakalah")
    if raw_terms is not None:
        if not isinstance(raw_terms, dict):
            raise ContractError("'wakalah' must be an object with keys r, T, k")
        missing = {"r", "T", "k"} - raw_terms.keys()
        if missing:
            raise ContractError(f"'wakalah' is missing {sorted(missing)}")
        k = raw_terms["k"]
        if isinstance(k, float) and k.is_integer():
            k = int(k)
        r, T = (_as_float(raw_terms[key], f"wakalah {key!r}") for key in ("r", "T"))
        terms = WakalahTerms(r=r, T=T, k=k)
    return ContractSpec(variant=variant, ratings=ratings, capital=capital, wakalah=terms)


def load_contract(path: str) -> tuple[ContractSpec, dict[str, object] | None, float | None]:
    """Read a contract file; returns (spec, model section, capital amount)."""
    text = _read_text(path, "contract")
    try:
        if text.startswith("\ufeff"):  # json.loads's own check, which JSONDecoder.decode leaves out
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _CONTRACT_DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a non-JSON constant or number, deep nesting
        raise ContractError(f"{path}: not valid JSON: {exc}") from exc
    spec = contract_from_dict(doc)
    model = doc.get("model")
    if model is not None and not isinstance(model, dict):
        raise ContractError("'model' must be an object with a 'kind' key")
    amount = doc.get("capital_amount")
    if amount is not None:
        amount = _as_float(amount, "field 'capital_amount'")
    return spec, model, amount


def _reject_constant(token: str) -> None:  # Python's json reads NaN, Infinity and -Infinity
    raise ContractError(f"{token} is not a JSON number")


def _parse_float(token: str) -> float:  # float() reads a literal such as 1e400 as inf
    value = float(token)
    if math.isinf(value):
        raise ContractError(f"{token} is out of the float range")
    return value


#: Shared by every load, as json's own default decoder is: json.loads with hooks builds a decoder per call.
_CONTRACT_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_parse_float)


# ---------------------------------------------------------------------------
# Risk-model construction


def _require_number(mapping: dict[str, object], key: str) -> float:
    if key not in mapping:
        raise ContractError(f"missing numeric field {key!r}")
    return _as_float(mapping[key], f"field {key!r}")


def _require_capital_amount(amount: float | None, kind: str) -> float:
    if amount is None:
        raise ContractError(f"model kind {kind!r} needs 'capital_amount' (the capital L)")
    return amount


#: The model kinds with a closed form, which alone can also be simulated: the record, whose fields
#: before its capital L are the kind's numeric fields and which carries its exact sampler ``draw``,
#: and the closed form, looked up here per call so the benchmark's layer tracer sees it.
_PRICED_MODELS = {
    "gbm": (GbmParams, lambda p: gbm_closed_form(p)),
    "two_point": (TwoPointScenario, lambda p: two_point_profile(p)),
}
#: Every model kind a contract may name; ``--model`` spells each with hyphens.
_MODEL_KINDS = (*_PRICED_MODELS, "empirical", "fixed_rho")


def profile_from_model(
    model: dict[str, object],
    capital_amount: float | None,
    *,
    contract: str | os.PathLike | None,
    mc: McConfig | None = None,
) -> RiskProfile:
    """Build a risk profile from a contract file's model section.

    With ``mc`` a priced model is simulated with those settings; without it
    every kind gives its closed form, sample or fixed risk.
    ``contract`` is the file the section was read from. A relative draws path
    is read from the directory of that file's real path (symlinks resolved),
    or opened as given, from the working directory, when ``contract`` is None.
    """
    kind = model.get("kind")
    # A kind parsed from JSON may be a list or an object, which cannot be hashed.
    priced = _PRICED_MODELS.get(kind) if isinstance(kind, str) else None
    if priced is not None:
        record, closed_form = priced
        values = [_require_number(model, key) for key in record._fields[:-1]]
        params = record(*values, L=_require_capital_amount(capital_amount, kind))
        return closed_form(params) if mc is None else monte_carlo_profile(params, mc)
    if kind not in _MODEL_KINDS:
        raise ContractError(
            f"unknown model kind {kind!r}; expected {', '.join(_MODEL_KINDS[:-1])}, or {_MODEL_KINDS[-1]}"
        )
    if mc is not None:
        raise ContractError(
            f"--simulate applies only to model kinds {' and '.join(_PRICED_MODELS)}, not {kind!r}"
        )
    if kind == "empirical":
        rel = model.get("path")
        if not isinstance(rel, str):
            raise ContractError("empirical model needs a 'path' to the draws file")
        path = rel if contract is None else os.path.join(os.path.dirname(os.path.realpath(contract)), rel)
        draws = load_empirical_draws(path)
        return empirical_profile(
            EmpiricalSample(draws=draws, L=_require_capital_amount(capital_amount, kind))
        )
    rho = _require_number(model, "rho")
    delta = _require_number(model, "delta") if "delta" in model else None
    e_profit = _require_number(model, "e_profit") if "e_profit" in model else None
    return RiskProfile.from_rho(rho, delta=delta, e_profit=e_profit)


def _model_from_flags(args: argparse.Namespace) -> dict[str, object]:
    kind = args.model.replace("-", "_")
    model: dict[str, object] = {"kind": kind}
    if kind in _PRICED_MODELS:
        for key in _PRICED_MODELS[kind][0]._fields[:-1]:
            model[key] = _flag(args, key)
    elif kind == "empirical":
        if args.data is None:
            raise ContractError("--model empirical needs --data FILE")
        model["path"] = args.data
    elif kind == "fixed_rho":
        model["rho"] = _flag(args, "rho")
        if args.delta is not None:
            model["delta"] = args.delta
    return model


def _mc_config(args: argparse.Namespace) -> McConfig | None:
    """The Monte Carlo settings of ``--simulate``, ``--paths`` and ``--seed``; None without ``--simulate``."""
    return McConfig(n_paths=args.paths, seed=args.seed) if args.simulate else None


def _flag(args: argparse.Namespace, name: str) -> float:
    value = getattr(args, name)
    if value is None:
        raise ContractError(f"--model {args.model} needs --{name.replace('_', '-')}")
    return value


# ---------------------------------------------------------------------------
# Formatting helpers


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _fmt(x: float) -> str:
    """Display rounding: 4 significant digits (full precision lives in --json)."""
    return f"{x:.4g}"


def _profile_payload(profile: RiskProfile) -> dict[str, object]:
    payload: dict[str, object] = {
        "e_profit": profile.e_profit,
        "e_loss": profile.e_loss,
        "rho": profile.rho,
        "delta": profile.delta,
        "viable": profile.viable(),
    }
    for key in ("se_profit", "se_loss", "se_rho", "se_delta"):
        value = getattr(profile, key)
        if value is not None:
            payload[key] = value
    return payload


def _stdout() -> TextIO:
    """``sys.stdout`` for a report; a process started with no file descriptor 1 has None there,
    and its report fails as a write to that descriptor would."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _print_profile(profile: RiskProfile) -> None:
    lines = [
        f"e_profit: {_fmt(profile.e_profit)}",
        f"e_loss:   {_fmt(profile.e_loss)}",
        f"rho:      {_fmt(profile.rho)}",
        f"delta:    {_fmt(profile.delta)}",
    ]
    if profile.se_profit is not None:
        lines.append(f"se(e_profit): {_fmt(profile.se_profit)}   se(e_loss): {_fmt(profile.se_loss)}")
    if profile.se_rho is not None:
        lines.append(f"se(rho):      {_fmt(profile.se_rho)}   se(delta):  {_fmt(profile.se_delta)}")
    lines.append(f"viable:   {'yes' if profile.viable() else 'no (rho > 1: not viable)'}")
    print("\n".join(lines), file=_stdout())


# ---------------------------------------------------------------------------
# Subcommands


def cmd_risk(args: argparse.Namespace) -> int:
    model = _model_from_flags(args)
    if args.L is None and model["kind"] != "fixed_rho":
        raise ContractError(f"--model {args.model} needs --L (the capital)")
    profile = profile_from_model(model, args.L, contract=None, mc=_mc_config(args))
    if args.json:
        print(json.dumps(_profile_payload(profile)), file=_stdout())
    else:
        _print_profile(profile)
    return 0 if profile.viable() else 2


def _contract_and_profile(args: argparse.Namespace, purpose: str) -> tuple[ContractSpec, RiskProfile]:
    """Load the contract file and build the risk profile of its model section."""
    spec, model, amount = load_contract(args.contract)
    if model is None:
        raise ContractError(f"contract file has no 'model'; {purpose} needs a risk profile")
    return spec, profile_from_model(model, amount, contract=args.contract, mc=_mc_config(args))


def _report_payload(report: VerificationReport, tol: float) -> dict[str, object]:
    """The verification block of ``allocate --json`` and the body of ``verify --json``;
    a residual that is not finite is written as null, so the output stays strict JSON."""
    return {
        "max_fairness_residual": _finite_or_none(report.max_fairness_residual),
        "simplex_residual": _finite_or_none(report.simplex_residual),
        "passed": report.passed,
        "tol": tol,
    }


def cmd_allocate(args: argparse.Namespace) -> int:
    spec, profile = _contract_and_profile(args, "allocation")
    alloc = allocate(spec, profile)
    report = verify_allocation(alloc, spec, profile, tol=args.tol)
    if args.json:
        verification = _report_payload(report, args.tol)
        payload = {
            "variant": spec.variant.value,
            **_profile_payload(profile),
            "gammas": list(alloc.gammas),
            "payoffs": list(alloc.payoffs),
            "payoff_valuation": alloc.valuation,
            "periodic_payment": alloc.periodic_payment,
            "residual": verification["max_fairness_residual"],
            "verification": verification,
        }
        print(json.dumps(payload), file=_stdout())
    else:
        lines = [
            f"variant: {spec.variant.value}",
            f"rho: {_fmt(profile.rho)}   delta: {_fmt(profile.delta)}",
        ]
        for i, (g, payoff) in enumerate(zip(alloc.gammas, alloc.payoffs), start=1):
            lines.append(f"partner {i}: gamma = {_fmt(g)}   payoff = {_fmt(payoff)}")
        if alloc.periodic_payment is not None:
            lines.append(
                f"manager (partner {spec.partner_count}): p = {_fmt(alloc.periodic_payment)}"
                f" paid {spec.wakalah.k} times   payoff = {_fmt(alloc.payoffs[-1])}"
            )
        lines.append(f"payoffs valued at: {alloc.valuation}")
        status = "OK" if report.passed else "FAILED"
        lines.append(
            f"verification: residual {_fmt(report.max_fairness_residual)}, "
            f"simplex defect {_fmt(report.simplex_residual)} (tol {args.tol:g}) -> {status}"
        )
        print("\n".join(lines), file=_stdout())
    return 0 if report.passed else 3


def cmd_sweep(args: argparse.Namespace) -> int:
    spec, _, _ = load_contract(args.contract)
    lo, hi, steps = args.rho_from, args.rho_to, args.steps
    if not (0.0 <= lo < hi <= 1.0):
        raise ContractError(f"need 0 <= --rho-from < --rho-to <= 1, got [{lo}, {hi}]")
    plan = AllocationPlan.for_contract(spec)
    # Row sums are (1 - rho) sum(w_eff) + rho sum(kappa_eff), so these two sums bound every row.
    if abs(math.fsum(plan.w_eff) - 1.0) > 1e-9 or abs(math.fsum(plan.kappa_eff) - 1.0) > 1e-9:
        raise ContractError("the contract's sharing plan violates the ratio simplex")
    blocks = _sweep_csv(tuple(zip(plan.w_eff, plan.kappa_eff)), lo, hi, steps)
    if args.output == "-":
        _stdout().writelines(blocks)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(blocks)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ContractError(f"cannot write sweep output: {exc}") from exc
    return 0


def _sweep_csv(pairs: tuple[tuple[float, float], ...], lo: float, hi: float, steps: int) -> Iterator[str]:
    """The sweep CSV of the plan's (w_eff, kappa_eff) pairs: the header, then the rows in
    blocks of :data:`_SWEEP_BLOCK_ROWS`. Each block is built by columns, the rho grid and
    one list per gamma, then joined with one %-format per row, so memory stays flat at any
    step count. Every cell takes the float operations of AllocationPlan.gammas, in its order."""
    # "%.12g" % x and f"{x:.12g}" print the same digits.
    row_format = ",".join([f"%.{CSV_DIGITS}g"] * (len(pairs) + 1))
    yield "rho," + ",".join(f"gamma_{j + 1}" for j in range(len(pairs))) + "\n"
    span, last = hi - lo, steps - 1
    for start in range(0, steps, _SWEEP_BLOCK_ROWS):
        # The grid stays within [lo, hi] <= 1, so every row is a viable risk.
        rhos = [lo + span * i / last for i in range(start, min(start + _SWEEP_BLOCK_ROWS, steps))]
        labours = [1.0 - rho for rho in rhos]
        columns = [[w * labour + k * rho for labour, rho in zip(labours, rhos)] for w, k in pairs]
        yield "\n".join(map(row_format.__mod__, zip(rhos, *columns))) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    spec, profile = _contract_and_profile(args, "verification")
    _as_profile(profile)  # a non-viable profile is an error before the --p checks
    if spec.wakalah is not None and args.p is None:
        raise ContractError("the wakalah variant needs --p (the periodic payment)")
    if spec.wakalah is None and args.p is not None:
        raise ContractError(f"--p applies only to the wakalah variant, not {spec.variant.value}")
    candidate = Allocation(gammas=args.gammas, payoffs=(), periodic_payment=args.p)
    report = verify_allocation(candidate, spec, profile, tol=args.tol)
    if args.json:
        print(json.dumps(_report_payload(report, args.tol)), file=_stdout())
    else:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"fairness residual: {_fmt(report.max_fairness_residual)}   "
            f"simplex defect: {_fmt(report.simplex_residual)}   (tol {args.tol:g}) -> {status}",
            file=_stdout(),
        )
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------
# Parser


def _number_flag(
    kind: type[int] | type[float], low: float | None = None, high: float = math.inf, rule: str | None = None,
) -> Callable[[str], float]:
    """The ``type=`` callable of a numeric flag or a ``--gammas`` entry: ``kind`` text in ``[low, high)``.

    With no ``low`` it takes any ``float()`` text, ``inf`` and ``nan`` too, and the library names the
    range; with one, finite values only, and ``rule`` (made from a float range unless given) names it.
    Every failure is an ArgumentTypeError, since argparse's message on a ValueError names the callable.
    """
    if low is None:
        def parse(text: str) -> float:
            try:
                value = float(text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
            # float() reads a literal beyond the float range, such as 1e400, as inf; only inf spellings may.
            if math.isinf(value) and text.strip().lstrip("+-").lower() not in ("inf", "infinity"):
                raise argparse.ArgumentTypeError(f"out of the float range, got {text!r}")
            return value
        return parse
    if rule is None:  # a float rule; each integer flag names its own
        rule = "must be a finite number" + ("" if low == -math.inf else f" >= {low:g}")

    def parse_in_range(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        # NaN fails every comparison and inf fails `< high`; -inf is no finite number either.
        if not low <= value < high or value == -math.inf:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    return parse_in_range


def _print_help(parser: argparse.ArgumentParser, file: TextIO | None = None) -> None:
    """``print_help`` of every plsfair parser: help for stdout goes through :func:`_stdout`, and a
    write it refuses raises, where argparse's own drops the OSError and writes to stderr when
    ``sys.stdout`` is None. Help sent to a given file, such as stderr, is printed as argparse prints it."""
    if file is not None:
        argparse.ArgumentParser.print_help(parser, file)
    else:
        _stdout().write(parser.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``plsfair`` argument parser, built on the first call and shared after it.

    Every call in a process returns the same parser, so callers must not
    change it. Parsing leaves no state behind in it: each ``parse_args``
    starts a new namespace from the (scalar) defaults.
    """
    number = _number_flag(float)
    finite = _number_flag(float, -math.inf)
    # Each subcommand takes only the flags it reads: risk builds a profile,
    # allocate and verify also check against a tolerance, sweep needs none.
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    seed = _number_flag(int, 0, 2**64, "seed must be an unsigned 64-bit integer")
    profile.add_argument("--seed", type=seed, default=0, help="simulation seed (default 0)")
    profile.add_argument(
        "--paths", type=_number_flag(int, 1, rule="must be a positive integer"), default=DEFAULT_PATHS,
        help=f"Monte Carlo path count (default {DEFAULT_PATHS})",
    )
    profile.add_argument(
        "--simulate", action="store_true",
        help="estimate the risk profile by Monte Carlo instead of the closed form",
    )
    checked = argparse.ArgumentParser(add_help=False, parents=[profile])
    checked.add_argument(
        "--tol", type=_number_flag(float, 0.0), default=DEFAULT_TOL,
        help=f"verification tolerance, relative (default {DEFAULT_TOL:g})",
    )

    parser = argparse.ArgumentParser(
        prog="plsfair",
        description="c-fair profit-sharing ratios for profit-and-loss sharing contracts",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_risk = sub.add_parser("risk", parents=[profile], help="compute a risk profile from a model")
    p_risk.add_argument("--model", required=True, choices=[kind.replace("_", "-") for kind in _MODEL_KINDS])
    p_risk.add_argument("--mu", type=number, help="drift per period (gbm)")
    p_risk.add_argument("--sigma", type=number, help="volatility per sqrt-period (gbm)")
    p_risk.add_argument("--T", type=number, help="horizon in periods (gbm)")
    p_risk.add_argument("--L", type=number, help="capital")
    p_risk.add_argument("--beta", type=number, help="success probability (two-point)")
    p_risk.add_argument("--r-plus", type=number, help="success revenue (two-point)")
    p_risk.add_argument("--r-minus", type=number, help="failure revenue (two-point)")
    p_risk.add_argument("--data", help="draws file, one per line (empirical)")
    p_risk.add_argument("--rho", type=number, help="investment risk (fixed-rho)")
    p_risk.add_argument("--delta", type=number, help="expected investment profit (fixed-rho)")
    p_risk.set_defaults(func=cmd_risk)

    p_alloc = sub.add_parser(
        "allocate", parents=[checked], help="compute and verify the c-fair allocation"
    )
    p_alloc.add_argument("contract", help="contract JSON file")
    p_alloc.set_defaults(func=cmd_allocate)

    p_sweep = sub.add_parser("sweep", help="CSV of ratios over an investment-risk grid")
    p_sweep.add_argument("contract", help="contract JSON file")
    p_sweep.add_argument("--rho-from", type=number, default=0.0)
    p_sweep.add_argument("--rho-to", type=number, default=1.0)
    p_sweep.add_argument("--steps", type=_number_flag(int, 2, rule="must be an integer >= 2"), default=101)
    p_sweep.add_argument("-o", "--output", default="-", help="output CSV path ('-' = stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", parents=[checked], help="check candidate ratios against the fairness equations"
    )
    p_verify.add_argument("contract", help="contract JSON file")
    p_verify.add_argument(
        "--gammas", required=True, type=lambda text: tuple(map(finite, text.split(","))),
        help="comma-separated profit ratios",
    )
    p_verify.add_argument("--p", type=finite, help="periodic payment (wakalah variant)")
    p_verify.set_defaults(func=cmd_verify)

    # Read `--mu -5e-2`, `--L -1_000`, `--tol -inf` and `--gammas -inf,0.3` as values: argparse on 3.11
    # takes only -1 and -.5 shapes. No option here starts with a digit or is spelt -inf or -nan, so none
    # is shadowed; an inf or nan spelling must end the word or the first --gammas entry.
    negative_number = re.compile(r"-(\.?\d|(inf|infinity|nan)(,|$))", re.IGNORECASE)
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = negative_number
        # Flags are named in full: `--js` is no `--json`, and a flag added later turns no prefix ambiguous.
        each.allow_abbrev = False
        each.print_help = types.MethodType(_print_help, each)
    parser._commands = sub.choices  # main hands a command line that starts with a name to its parser
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one ``plsfair`` command and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``; output goes to the current ``sys.stdout`` and
    ``sys.stderr``. ``main`` may be called any number of times in one process, and no call sees
    the arguments of another. A command line that starts with a command's name goes straight to
    that command's parser, any other to the top-level one; either way it prints and exits as one
    top-level ``parse_args`` would. A report or help text that stdout refuses ends in one
    ``error: cannot write output: ...`` line and exit 1.
    """
    try:
        code = _dispatch(sys.argv[1:] if argv is None else list(argv))
        print(end="", flush=True)  # output still in the buffer fails here, not in the flush at exit
    except NonViableError as exc:
        print(f"error: not viable: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # stdout refused the output; a read or the sweep's file fails as a ContractError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return code


def _dispatch(argv: list[str]) -> int:
    """Parse ``argv`` and run its command; help and a refused command line return 0 or 1 here."""
    parser = build_parser()
    command = parser._commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error("unrecognized arguments: " + " ".join(extras))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    return args.func(args)


def entrypoint() -> None:
    code = main()
    try:
        print(end="", flush=True)
    except OSError:  # main named the failure; the buffer kept the bytes, which would fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
