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

Every numeric field is a JSON number, never a string or a boolean.
``capital`` may be omitted for the mudharabah variants (it is pinned to
(1, 0)); ``wakalah`` is required exactly for the wakalah variant. Model
kinds: ``gbm`` (mu, sigma, T), ``two_point`` (beta, r_plus, r_minus),
``empirical`` (path, relative to the contract file), ``fixed_rho`` (rho,
optional delta or e_profit). ``capital_amount`` supplies L and is required
for every kind except ``fixed_rho``. ``--simulate`` applies to ``gbm`` and
``two_point`` only.

Exit codes: 0 success, 1 input error, 2 non-viable investment,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

from .contracts import (
    Allocation,
    ContractError,
    ContractSpec,
    NonViableError,
    RiskProfile,
    Variant,
    WakalahTerms,
)
from .ratios import AllocationPlan, allocate
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

DEFAULT_PATHS = 1_000_000

#: Significant digits in sweep CSV cells; fixed so output is byte-stable.
CSV_DIGITS = 12


# ---------------------------------------------------------------------------
# Contract file (de)serialization


def contract_to_dict(spec: ContractSpec) -> dict[str, Any]:
    """Serialize a contract to the JSON document layout (schema 1)."""
    doc: dict[str, Any] = {
        "schema": 1,
        "variant": spec.variant.value,
        "ratings": list(spec.ratings.values),
        "capital": list(spec.capital.values),
    }
    if spec.wakalah is not None:
        doc["wakalah"] = {"r": spec.wakalah.r, "T": spec.wakalah.T, "k": spec.wakalah.k}
    return doc


def contract_from_dict(doc: Any) -> ContractSpec:
    """Parse and validate the contract part of a JSON document."""
    if not isinstance(doc, dict):
        raise ContractError(f"contract document must be a JSON object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != 1:
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
        r, T = (_number(raw_terms[key], f"wakalah {key!r}") for key in ("r", "T"))
        terms = WakalahTerms(r=r, T=T, k=k)
    return ContractSpec(
        variant=variant,
        ratings=_numbers(ratings, "rating"),
        capital=_numbers(capital, "capital share") if capital is not None else None,
        wakalah=terms,
    )


def load_contract(path: str) -> tuple[ContractSpec, dict[str, Any] | None, float | None]:
    """Read a contract file; returns (spec, model section, capital amount)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError(f"cannot read contract file: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ContractError(f"{path}: not valid JSON: {exc}") from exc
    spec = contract_from_dict(doc)
    model = doc.get("model") if isinstance(doc, dict) else None
    if model is not None and not isinstance(model, dict):
        raise ContractError("'model' must be an object with a 'kind' key")
    amount = doc.get("capital_amount") if isinstance(doc, dict) else None
    if amount is not None:
        amount = _require_number({"capital_amount": amount}, "capital_amount")
    return spec, model, amount


# ---------------------------------------------------------------------------
# Risk-model construction


_JSON_NUMBER_TYPES = frozenset({int, float})


def _number(value: Any, what: str) -> float:
    """A JSON number as a float: a string or a ``bool`` is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ContractError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ContractError(f"{what} is out of the float range, got {value!r}") from None


def _numbers(values: list, what: str) -> tuple:
    """The entries of a JSON array, each held to :func:`_number`'s rule."""
    if _JSON_NUMBER_TYPES.issuperset(map(type, values)):  # no call per entry in the usual case
        return tuple(values)
    return tuple(_number(v, f"{what} {i}") for i, v in enumerate(values, start=1))


def _require_number(mapping: dict[str, Any], key: str) -> float:
    if key not in mapping:
        raise ContractError(f"missing numeric field {key!r}")
    return _number(mapping[key], f"field {key!r}")


def _require_capital_amount(amount: float | None, kind: str) -> float:
    if amount is None:
        raise ContractError(f"model kind {kind!r} needs 'capital_amount' (the capital L)")
    return amount


#: The model kinds with a closed form, which alone can also be simulated: parameters type,
#: closed form (looked up here per call, so the benchmark's layer tracer sees it) and fields.
_PRICED_MODELS = {
    "gbm": (GbmParams, lambda p: gbm_closed_form(p), ("mu", "sigma", "T")),
    "two_point": (TwoPointScenario, lambda p: two_point_profile(p), ("beta", "r_plus", "r_minus")),
}


def profile_from_model(
    model: dict[str, Any],
    capital_amount: float | None,
    *,
    contract: Path | None,
    simulate: bool = False,
    seed: int = 0,
    paths: int = DEFAULT_PATHS,
) -> RiskProfile:
    """Build a risk profile from a contract file's model section.

    ``contract`` is the file the section was read from. A relative draws path
    is read from the directory of that file's real path (symlinks resolved),
    or opened as given, from the working directory, when ``contract`` is None.
    """
    kind = model.get("kind")
    # A kind parsed from JSON may be a list or an object, which cannot be hashed.
    priced = _PRICED_MODELS.get(kind) if isinstance(kind, str) else None
    if priced is not None:
        params_type, closed_form, fields = priced
        values = [_require_number(model, key) for key in fields]
        params = params_type(*values, L=_require_capital_amount(capital_amount, kind))
        if simulate:
            return monte_carlo_profile(params, McConfig(n_paths=paths, seed=seed))
        return closed_form(params)
    if kind not in ("empirical", "fixed_rho"):
        raise ContractError(
            f"unknown model kind {kind!r}; expected gbm, two_point, empirical, or fixed_rho"
        )
    if simulate:
        raise ContractError(
            f"--simulate applies only to model kinds {' and '.join(_PRICED_MODELS)}, not {kind!r}"
        )
    if kind == "empirical":
        rel = model.get("path")
        if not isinstance(rel, str):
            raise ContractError("empirical model needs a 'path' to the draws file")
        path = Path(rel) if contract is None else contract.resolve().parent / rel
        draws = load_empirical_draws(path)
        return empirical_profile(
            EmpiricalSample(draws=draws, L=_require_capital_amount(capital_amount, kind))
        )
    rho = _require_number(model, "rho")
    delta = _require_number(model, "delta") if "delta" in model else None
    e_profit = _require_number(model, "e_profit") if "e_profit" in model else None
    return RiskProfile.from_rho(rho, delta=delta, e_profit=e_profit)


def _model_from_flags(args: argparse.Namespace) -> dict[str, Any]:
    kind = args.model.replace("-", "_")
    model: dict[str, Any] = {"kind": kind}
    if kind in _PRICED_MODELS:
        for key in _PRICED_MODELS[kind][2]:
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


def _flag(args: argparse.Namespace, name: str) -> float:
    value = getattr(args, name)
    if value is None:
        raise ContractError(f"--model {args.model} needs --{name.replace('_', '-')}")
    return value


# ---------------------------------------------------------------------------
# Formatting helpers


def _fmt(x: float) -> str:
    """Display rounding: 4 significant digits (full precision lives in --json)."""
    return f"{x:.4g}"


def _profile_payload(profile: RiskProfile) -> dict[str, Any]:
    payload: dict[str, Any] = {
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


def _print_profile(profile: RiskProfile) -> None:
    print(f"e_profit: {_fmt(profile.e_profit)}")
    print(f"e_loss:   {_fmt(profile.e_loss)}")
    print(f"rho:      {_fmt(profile.rho)}")
    print(f"delta:    {_fmt(profile.delta)}")
    if profile.se_profit is not None:
        print(f"se(e_profit): {_fmt(profile.se_profit)}   se(e_loss): {_fmt(profile.se_loss)}")
    if profile.se_rho is not None:
        print(f"se(rho):      {_fmt(profile.se_rho)}   se(delta):  {_fmt(profile.se_delta)}")
    print(f"viable:   {'yes' if profile.viable() else 'no (rho > 1: not viable)'}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_risk(args: argparse.Namespace) -> int:
    model = _model_from_flags(args)
    if args.L is None and model["kind"] != "fixed_rho":
        raise ContractError(f"--model {args.model} needs --L (the capital)")
    profile = profile_from_model(
        model, args.L, contract=None, simulate=args.simulate, seed=args.seed, paths=args.paths
    )
    if args.json:
        print(json.dumps(_profile_payload(profile)))
    else:
        _print_profile(profile)
    return 0 if profile.viable() else 2


def _contract_and_profile(args: argparse.Namespace, purpose: str) -> tuple[ContractSpec, RiskProfile]:
    """Load the contract file and build the risk profile of its model section."""
    spec, model, amount = load_contract(args.contract)
    if model is None:
        raise ContractError(f"contract file has no 'model'; {purpose} needs a risk profile")
    profile = profile_from_model(
        model, amount, contract=Path(args.contract),
        simulate=args.simulate, seed=args.seed, paths=args.paths,
    )
    return spec, profile


def _report_payload(report: VerificationReport, tol: float) -> dict[str, Any]:
    """The verification block of ``allocate --json`` and the body of ``verify --json``."""
    return {
        "max_fairness_residual": report.max_fairness_residual,
        "simplex_residual": report.simplex_residual,
        "passed": report.passed,
        "tol": tol,
    }


def cmd_allocate(args: argparse.Namespace) -> int:
    spec, profile = _contract_and_profile(args, "allocation")
    alloc = allocate(spec, profile)
    report = verify_allocation(alloc, spec, profile, tol=args.tol)
    if args.json:
        payload = {
            "variant": spec.variant.value,
            **_profile_payload(profile),
            "gammas": list(alloc.gammas),
            "payoffs": list(alloc.payoffs),
            "payoff_valuation": alloc.valuation,
            "periodic_payment": alloc.periodic_payment,
            "residual": report.max_fairness_residual,
            "verification": _report_payload(report, args.tol),
        }
        print(json.dumps(payload))
    else:
        print(f"variant: {spec.variant.value}")
        print(f"rho: {_fmt(profile.rho)}   delta: {_fmt(profile.delta)}")
        for i, g in enumerate(alloc.gammas, start=1):
            print(f"partner {i}: gamma = {_fmt(g)}   payoff = {_fmt(alloc.payoffs[i - 1])}")
        if alloc.periodic_payment is not None:
            print(
                f"manager (partner {spec.partner_count}): p = {_fmt(alloc.periodic_payment)}"
                f" paid {spec.wakalah.k} times   payoff = {_fmt(alloc.payoffs[-1])}"
            )
        print(f"payoffs valued at: {alloc.valuation}")
        status = "OK" if report.passed else "FAILED"
        print(
            f"verification: residual {_fmt(report.max_fairness_residual)}, "
            f"simplex defect {_fmt(report.simplex_residual)} (tol {args.tol:g}) -> {status}"
        )
    return 0 if report.passed else 3


def cmd_sweep(args: argparse.Namespace) -> int:
    spec, _, _ = load_contract(args.contract)
    lo, hi, steps = args.rho_from, args.rho_to, args.steps
    if not (0.0 <= lo < hi <= 1.0):
        raise ContractError(f"need 0 <= --rho-from < --rho-to <= 1, got [{lo}, {hi}]")
    if steps < 2:
        raise ContractError(f"need --steps >= 2, got {steps}")
    plan = AllocationPlan.for_contract(spec)
    pairs = tuple(zip(plan.w_eff, plan.kappa_eff))
    # One %-format per row; "%.12g" % x and f"{x:.12g}" print the same digits.
    row_format = ",".join([f"%.{CSV_DIGITS}g"] * (len(pairs) + 1))
    lines = ["rho," + ",".join(f"gamma_{j + 1}" for j in range(len(pairs)))]
    fsum = math.fsum
    for i in range(steps):
        # The grid stays within [lo, hi] <= 1, so every row is a viable risk.
        rho = lo + (hi - lo) * i / (steps - 1)
        labour = 1.0 - rho
        gammas = [w * labour + k * rho for w, k in pairs]  # AllocationPlan.gammas, inlined
        if abs(fsum(gammas) - 1.0) > 1e-9:
            raise ContractError(f"row at rho={rho} violates the ratio simplex")
        lines.append(row_format % (rho, *gammas))
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ContractError(f"cannot write sweep output: {exc}") from exc
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec, profile = _contract_and_profile(args, "verification")
    if not profile.viable():
        raise NonViableError(f"investment risk {profile.rho} exceeds 1")
    try:
        gammas = tuple(float(tok) for tok in args.gammas.split(","))
    except ValueError:
        gammas = (math.nan,)
    if not all(map(math.isfinite, gammas)):
        raise ContractError(f"--gammas must be a comma-separated list of finite numbers, got {args.gammas!r}")
    if spec.wakalah is not None and args.p is None:
        raise ContractError("the wakalah variant needs --p (the periodic payment)")
    if spec.wakalah is None and args.p is not None:
        raise ContractError(f"--p applies only to the wakalah variant, not {spec.variant.value}")
    candidate = Allocation(gammas=gammas, payoffs=(), periodic_payment=args.p)
    report = verify_allocation(candidate, spec, profile, tol=args.tol)
    if args.json:
        print(json.dumps(_report_payload(report, args.tol)))
    else:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"fairness residual: {_fmt(report.max_fairness_residual)}   "
            f"simplex defect: {_fmt(report.simplex_residual)}   (tol {args.tol:g}) -> {status}"
        )
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------
# Parser


def _u64(text: str) -> int:
    # Every failure says what it got; argparse's own message on a ValueError
    # would name this function.
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(
            f"seed must be an unsigned 64-bit integer, got {text!r}"
        )
    return value


def _finite_float(text: str, minimum: float = -math.inf) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= minimum):
        rule = "a finite number" if minimum == -math.inf else f"a finite number >= {minimum:g}"
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``plsfair`` argument parser, built on the first call and shared after it.

    Every call in a process returns the same parser, so callers must not
    change it. Parsing leaves no state behind in it: each ``parse_args``
    starts a new namespace from the (scalar) defaults.
    """
    # Each subcommand takes only the flags it reads: risk builds a profile,
    # allocate and verify also check against a tolerance, sweep needs none.
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    profile.add_argument("--seed", type=_u64, default=0, help="simulation seed (default 0)")
    profile.add_argument(
        "--paths", type=_positive_int, default=DEFAULT_PATHS,
        help=f"Monte Carlo path count (default {DEFAULT_PATHS})",
    )
    profile.add_argument(
        "--simulate", action="store_true",
        help="estimate the risk profile by Monte Carlo instead of the closed form",
    )
    checked = argparse.ArgumentParser(add_help=False, parents=[profile])
    checked.add_argument(
        "--tol", type=functools.partial(_finite_float, minimum=0.0), default=DEFAULT_TOL,
        help=f"verification tolerance, relative (default {DEFAULT_TOL:g})",
    )

    parser = argparse.ArgumentParser(
        prog="plsfair",
        description="c-fair profit-sharing ratios for profit-and-loss sharing contracts",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_risk = sub.add_parser("risk", parents=[profile], help="compute a risk profile from a model")
    p_risk.add_argument(
        "--model", required=True, choices=["gbm", "two-point", "empirical", "fixed-rho"]
    )
    p_risk.add_argument("--mu", type=float, help="drift per period (gbm)")
    p_risk.add_argument("--sigma", type=float, help="volatility per sqrt-period (gbm)")
    p_risk.add_argument("--T", type=float, help="horizon in periods (gbm)")
    p_risk.add_argument("--L", type=float, help="capital")
    p_risk.add_argument("--beta", type=float, help="success probability (two-point)")
    p_risk.add_argument("--r-plus", type=float, help="success revenue (two-point)")
    p_risk.add_argument("--r-minus", type=float, help="failure revenue (two-point)")
    p_risk.add_argument("--data", help="draws file, one per line (empirical)")
    p_risk.add_argument("--rho", type=float, help="investment risk (fixed-rho)")
    p_risk.add_argument("--delta", type=float, help="expected investment profit (fixed-rho)")
    p_risk.set_defaults(func=cmd_risk)

    p_alloc = sub.add_parser(
        "allocate", parents=[checked], help="compute and verify the c-fair allocation"
    )
    p_alloc.add_argument("contract", help="contract JSON file")
    p_alloc.set_defaults(func=cmd_allocate)

    p_sweep = sub.add_parser("sweep", help="CSV of ratios over an investment-risk grid")
    p_sweep.add_argument("contract", help="contract JSON file")
    p_sweep.add_argument("--rho-from", type=float, default=0.0)
    p_sweep.add_argument("--rho-to", type=float, default=1.0)
    p_sweep.add_argument("--steps", type=int, default=101)
    p_sweep.add_argument("-o", "--output", default="-", help="output CSV path ('-' = stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", parents=[checked], help="check candidate ratios against the fairness equations"
    )
    p_verify.add_argument("contract", help="contract JSON file")
    p_verify.add_argument("--gammas", required=True, help="comma-separated profit ratios")
    p_verify.add_argument("--p", type=_finite_float, help="periodic payment (wakalah variant)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one ``plsfair`` command and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``. Output goes to the current
    ``sys.stdout`` and ``sys.stderr``. ``main`` may be called any number of
    times in one process; every call parses with the one parser of
    ``build_parser``, and no call sees the arguments of another.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except NonViableError as exc:
        print(f"error: not viable: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
