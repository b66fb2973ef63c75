"""Input fuzzing: arbitrary contract documents and command lines never
trace back, and the library keeps the same promise.

Every document, however malformed, must end ``allocate``, ``sweep`` and
``verify`` with a documented exit code (0, 1, 2 or 3); an input error is
reported on a single ``error:`` line. The draws path of an empirical model
is one of three names next to the contract file (a valid draws file, a
missing name, a directory), so no example reads outside the test's own
directory. Command lines of all four subcommands, with flag values from
the same number pool and its text forms, keep that promise too. Every
public function of the ratio engine, the risk engine and the verifier,
called on the same number pool, returns only finite floats or raises a
``ContractError``.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import simplex_strategy
from plsfair import ratios, risk, verification
from plsfair.cli import main
from plsfair.contracts import (
    MANAGED_VARIANTS,
    MUDHARABAH_VARIANTS,
    ContractError,
    ContractSpec,
    RiskProfile,
    Variant,
    WakalahTerms,
)

DRAWS_PATHS = ("draws.txt", "missing.txt", "subdir")

COMMANDS = (
    ("allocate", "--json"),
    ("allocate", "--json", "--simulate", "--paths", "16"),
    ("sweep", "--steps", "3"),
    ("verify", "--gammas", "0.5,0.5"),
    ("verify", "--gammas", "0.5,0.5", "--p", "1"),
)

_keys = st.text(max_size=6).filter(lambda key: key != "path")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=8,
)
#: Any JSON number, including the extremes and integers beyond the float range, and three
#: values that are not numbers though float() or an isinstance(v, int) check takes two of them.
numbers = st.one_of(
    st.integers(-3, 100),
    st.floats(),
    st.sampled_from([10**400, -(10**400), 1e-320, 1e300, 1e6, 0.05, -700.0, 0.0, "2", True, None]),
)
#: JSON values that float() would turn into numbers, which a contract rejects.
number_like = st.sampled_from(["2", " 3 ", "1e0", "0.5", True, False])


def _rarely(usual: st.SearchStrategy, rare: st.SearchStrategy, one_in: int) -> st.SearchStrategy:
    """``rare`` about once in ``one_in`` draws. Its branch keys on a middle
    value, because hypothesis draws the ends of an integer range more often."""
    return st.integers(0, one_in - 1).flatmap(lambda i: rare if i == one_in // 2 else usual)


def _plausible(lo: float, hi: float) -> st.SearchStrategy:
    return _rarely(st.floats(lo, hi), numbers, 8)


_models = st.one_of(
    st.fixed_dictionaries({"kind": st.just("gbm"), "mu": _plausible(-1.0, 1.0),
                           "sigma": _plausible(0.01, 1.0), "T": _plausible(0.1, 10.0)}),
    st.fixed_dictionaries({"kind": st.just("two_point"), "beta": _plausible(0.0, 1.0),
                           "r_plus": _plausible(50.0, 200.0), "r_minus": _plausible(0.0, 150.0)}),
    st.fixed_dictionaries({"kind": st.just("empirical"), "path": st.sampled_from(DRAWS_PATHS)}),
    st.fixed_dictionaries({"kind": st.just("fixed_rho"), "rho": _plausible(0.0, 1.2)},
                          optional={"delta": numbers, "e_profit": numbers}),
    # A kind that is a JSON list or object cannot even be looked up in a table.
    st.fixed_dictionaries({"kind": st.lists(json_values, max_size=2) | st.dictionaries(_keys, json_values, max_size=2)}),
)
_wakalah = st.fixed_dictionaries(
    {"r": _plausible(0.0, 0.2), "T": _plausible(0.1, 1e7), "k": _rarely(st.integers(1, 12), numbers, 8)}
)


@st.composite
def _corrupted(draw, base: st.SearchStrategy) -> dict:
    """An object from ``base``; about one time in five, one key is dropped, added or made junk."""
    doc = draw(base)
    if draw(_rarely(st.just(False), st.just(True), 5)):
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        if draw(st.booleans()):
            doc[key] = draw(json_values)
        else:
            doc.pop(key, None)
    return doc


@st.composite
def _contracts(draw) -> dict:
    """A contract of a random variant whose shape mostly fits that variant."""
    variant = draw(st.sampled_from(list(Variant)))
    d = 2 if variant in MUDHARABAH_VARIANTS else draw(st.integers(2, 7))
    ratings = draw(_rarely(st.lists(_plausible(0.1, 10.0), min_size=d, max_size=d),
                           st.lists(numbers, max_size=d + 1), 8))
    if variant is Variant.FAIR_MUDHARABAH and len(ratings) == 2:
        ratings[1] = ratings[0]
    doc = {"schema": 1, "variant": variant.value, "ratings": ratings,
           "model": draw(_corrupted(_models)), "capital_amount": draw(_plausible(50.0, 150.0))}
    funders = d - 1 if variant in MANAGED_VARIANTS else d
    if variant not in MUDHARABAH_VARIANTS or draw(st.booleans()):
        n = draw(_rarely(st.just(funders), st.sampled_from([funders + 1, max(funders - 1, 1)]), 8))
        doc["capital"] = draw(_rarely(st.sampled_from([[1.0 / n] * n, [1.0] + [0.0] * (n - 1)]),
                                      st.lists(numbers, min_size=n, max_size=n), 8))
    if variant is Variant.MUSHARAKAH_WAKALAH or draw(_rarely(st.just(False), st.just(True), 10)):
        doc["wakalah"] = draw(_corrupted(_wakalah))
    for key in ("ratings", "capital"):
        if doc.get(key) and draw(_rarely(st.just(False), st.just(True), 8)):
            doc[key] = list(doc[key])  # a copy: sampled_from hands out one list object
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(number_like)
    return doc


#: Mostly contract-shaped objects, some with a broken key; about one
#: document in ten is any JSON value at all.
contract_documents = _rarely(_corrupted(_contracts()), json_values, 10)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "draws.txt").write_text("R_T\n80\n95\n110\n130\n", encoding="utf-8")
    (root / "subdir").mkdir()
    return root


def _gbm(mu: float, sigma: float, T: float = 1) -> dict:
    return {
        "schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
        "model": {"kind": "gbm", "mu": mu, "sigma": sigma, "T": T}, "capital_amount": 100,
    }


def _empirical(path: str) -> dict:
    return {
        "schema": 1, "variant": "musharakah_self_managed", "ratings": [1, 2], "capital": [0.5, 0.5],
        "model": {"kind": "empirical", "path": path}, "capital_amount": 100,
    }


def _reject_constant(token: str) -> None:
    raise ValueError(f"{token} is not strict JSON")


def _wakalah_doc(**terms) -> dict:
    return {
        "schema": 1, "variant": "musharakah_wakalah", "ratings": [1, 1, 1], "capital": [0.5, 0.5],
        "wakalah": {"r": 0.0, "T": 1, "k": 2, **terms}, "model": {"kind": "fixed_rho", "rho": 0.5},
    }


@settings(max_examples=150, deadline=None)
@given(doc=contract_documents)
@example(doc=_empirical("missing.txt"))
@example(doc=_empirical("subdir"))
@example(doc=_wakalah_doc(r="x"))
@example(doc=_wakalah_doc(r=False, T="1e0"))
@example(doc=_wakalah_doc(k=10**400))
@example(doc=_wakalah_doc(r=0.05, T=1e6))
@example(doc=_gbm(-700.0, 0.1))
@example(doc=_gbm(0.1, 1e200))
@example(doc=_gbm(0.0, 1e300, T=1e300))  # drift and vol both overflow: inf - inf
def test_no_exception_escapes_the_cli(workdir, doc):
    path = workdir / "contract.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command, *flags in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path), *flags])
        assert code in (0, 1, 2, 3)
        if code in (0, 3) and "--json" in flags:  # strict JSON: no NaN or Infinity
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        if code in (1, 2):
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1, message


# ---------------------------------------------------------------------------
# The command line: any argv ends in a documented exit


#: Flag values: the number pool as text, and text forms that float() and int() read or refuse.
flag_values = numbers.map(str) | st.sampled_from(
    ["1e400", "-1e400", "inf", "-inf", "-Infinity", "nan", "-nan", "1_000", "-5e-2", " 2 ", "0x10", "",
     "x", str(10**400), str(-(10**400))]
)
#: --paths and --steps: at most 10^4, one Monte Carlo chunk, so no worker thread starts; and
#: spellings that int() reads or refuses, which the one integer rule meets alike on both flags.
_counts = _rarely(st.integers(1, 10**4).map(str), st.sampled_from(
    ["0", "-3", "1e4", "1e6", "1.0", "+3", "1_000", "-0", " 2 ", "nan", "x", ""]), 8)
_RISK_FLAGS = {"--mu": (-1.0, 1.0), "--sigma": (0.01, 1.0), "--T": (0.1, 10.0), "--L": (50.0, 150.0),
               "--beta": (0.0, 1.0), "--r-plus": (50.0, 200.0), "--r-minus": (0.0, 150.0),
               "--rho": (0.0, 1.2), "--delta": (-10.0, 10.0)}
_MODEL_FLAGS = {"gbm": {"--mu", "--sigma", "--T", "--L"}, "two-point": {"--beta", "--r-plus", "--r-minus", "--L"},
                "empirical": {"--data", "--L"}, "fixed-rho": {"--rho"}}
_ARGV_CONTRACTS = {
    "gbm.json": _gbm(0.1, 0.2),
    "wakalah.json": _wakalah_doc(r=0.05),
    "empirical.json": _empirical("draws.txt"),
    "nonviable.json": {**_wakalah_doc(), "model": {"kind": "fixed_rho", "rho": 1.5}},
    # rho = 1/2 gives the fair ratios (0.75, 0.25), which verify passes
    "fair.json": {"schema": 1, "variant": "fair_mudharabah", "ratings": [1, 1],
                  "model": {"kind": "fixed_rho", "rho": 0.5}},
}
_gammas = st.sampled_from(["0.75,0.25", "0.5,0.5", "0.25,0.75", "0.5,0.25,0.25", "1e308,1e308"]) | st.lists(
    flag_values, min_size=1, max_size=3).map(",".join)


def _flag_value(lo: float, hi: float) -> st.SearchStrategy:
    return _rarely(st.floats(lo, hi).map(repr), flag_values, 8)


def _argv(data, root) -> list[str]:
    """A command line of one subcommand: mostly the flags it needs, with plausible values,
    now and then a value from the flag pool, a flag it does not take, or a bad path."""
    command = data.draw(st.sampled_from(["risk", "allocate", "sweep", "verify"]))
    # (flag, its values, the chance in ten that it is given)
    flags: list[tuple[str, st.SearchStrategy, int]] = []
    if command == "risk":
        model = data.draw(_rarely(st.sampled_from(list(_MODEL_FLAGS)), st.just("bogus"), 10))
        argv = [command, "--model", model]
        needed = _MODEL_FLAGS.get(model, set())
        flags += [(flag, _flag_value(lo, hi), 10 if flag in needed else 1) for flag, (lo, hi) in _RISK_FLAGS.items()]
        if "--data" in needed:
            flags.append(("--data", st.sampled_from([str(root / name) for name in DRAWS_PATHS]), 10))
    else:
        bad_paths = st.sampled_from(["missing.json", "subdir"])
        argv = [command, str(root / data.draw(_rarely(st.sampled_from(sorted(_ARGV_CONTRACTS)), bad_paths, 8)))]
    if command == "sweep":
        outputs = st.sampled_from(["-", str(root / "sweep.csv"), str(root / "subdir")])
        flags += [("--rho-from", _flag_value(0.0, 0.5), 5), ("--rho-to", _flag_value(0.5, 1.0), 5),
                  ("--steps", _counts, 7), ("-o", outputs, 5)]
    else:
        argv += [flag for flag, chance in (("--json", 5), ("--simulate", 3)) if data.draw(st.integers(0, 9)) < chance]
        # --paths is always given, so no run takes the default of 10^6 paths.
        flags += [("--seed", _rarely(st.integers(0, 2**64 - 1).map(str), flag_values, 8), 3),
                  ("--paths", _counts, 10)]
    if command in ("allocate", "verify"):
        flags.append(("--tol", _rarely(st.just("1e-9"), flag_values, 8), 3))
    if command == "verify":
        flags += [("--gammas", _gammas, 10), ("--p", _rarely(st.floats(0.0, 1.0).map(repr), flag_values, 8), 5)]
    for flag, values, chance in flags:
        if data.draw(st.integers(0, 9)) < chance:
            value = data.draw(values)
            argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
    if data.draw(_rarely(st.just(False), st.just(True), 10)):  # a flag of another subcommand, or none
        argv += [data.draw(st.sampled_from(["--tol", "--steps", "--mu", "--gammas", "--bogus"])), "1"]
    if data.draw(_rarely(st.just(False), st.just(True), 10)):  # a prefix of a flag, which names none
        prefixes = ["--js", "--sim", "--se", "--pa", "--to", "--st", "--rho-f", "--b", "--gam"]
        argv += [data.draw(st.sampled_from(prefixes)), "1"]
    return argv


@pytest.fixture(scope="module")
def argv_dir(workdir):
    for name, doc in _ARGV_CONTRACTS.items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    return workdir


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_no_command_line_traces_back(argv_dir, data):
    argv = _argv(data, argv_dir)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 1, 2, 3) and "Traceback" not in message, (argv, message)
    if code == 2 and argv[0] == "risk":  # risk prints a non-viable profile, and says so
        assert message == "" and ('"viable": false' in out.getvalue() or "not viable" in out.getvalue())
    elif code in (1, 2):
        assert sum("error:" in line for line in message.splitlines()) == 1, (argv, message)
    if "--json" in argv and (code in (0, 3) or out.getvalue()):  # strict JSON: no NaN or Infinity
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# The library: a finite result or a ContractError


def _sized_contract_args(d: int) -> st.SearchStrategy:
    shares = [_rarely(simplex_strategy(size=n).map(list), st.lists(numbers, min_size=n, max_size=n), 8)
              for n in (d, d - 1)]
    ratings = _rarely(st.lists(_plausible(0.1, 10.0), min_size=d, max_size=d),
                      st.lists(numbers, max_size=d + 1), 8)
    return st.tuples(ratings, *shares)


#: Ratings with capital for all d partners and for d-1 funders: mostly a contract, now and then
#: anything of the number pool, so a call gets past its first check.
_contract_args = st.one_of([_sized_contract_args(d) for d in (2, 3, 4)])
_expectations = st.tuples(_plausible(1e-3, 1e3), _plausible(0.0, 1e3))
#: A bare rho, or the (e_profit, e_loss) of a profile.
_risks = _plausible(0.0, 1.2) | _expectations
_terms = st.tuples(_plausible(0.0, 0.2), _plausible(0.1, 1e7), _rarely(st.integers(1, 12), numbers, 8))
_capital_amounts = _plausible(50.0, 150.0)
_gbm = st.tuples(_plausible(-1.0, 1.0), _plausible(0.01, 1.0), _plausible(0.1, 10.0), _capital_amounts)
_two_point = st.tuples(_plausible(0.0, 1.0), _plausible(50.0, 200.0), _plausible(0.0, 150.0), _capital_amounts)
_draws = st.lists(_plausible(0.0, 200.0), min_size=1, max_size=6)
def _entries(n: int) -> st.SearchStrategy:
    return st.lists(_plausible(-10.0, 10.0), min_size=n, max_size=n)


_musharakah_variants = st.sampled_from([v for v in Variant if v not in MUDHARABAH_VARIANTS])


def _risk(value: float | tuple) -> RiskProfile | float:
    return RiskProfile(*value) if isinstance(value, tuple) else value


def _spec(variant: Variant, contract: tuple, terms: tuple) -> ContractSpec:
    ratings, capital, funders = contract
    if variant is Variant.MUSHARAKAH_SELF_MANAGED:
        return ContractSpec(variant, ratings, capital)
    wakalah = WakalahTerms(*terms) if variant is Variant.MUSHARAKAH_WAKALAH else None
    return ContractSpec(variant, ratings, funders, wakalah)


def _verified(variant: Variant, contract: tuple, terms: tuple, expectations: tuple, tol: float):
    spec, profile = _spec(variant, contract, terms), RiskProfile(*expectations)
    return verification.verify_allocation(ratios.allocate(spec, profile), spec, profile, tol)


def _read_draws(draws: list, L: float, path) -> RiskProfile:
    path.write_text("R_T\n" + "\n".join(map(repr, draws)) + "\n", encoding="utf-8")
    return risk.empirical_profile(risk.EmpiricalSample(risk.load_empirical_draws(path), L))


#: Every public function of ratios, risk and verification, and AllocationPlan.crossing: a strategy for
#: its arguments and the call. load_empirical_draws returns a file's floats unchecked, as a parse, so it
#: is called together with the EmpiricalSample that checks them. Monte Carlo runs at most 10^4 paths.
ENGINE_CALLS = {
    "sharing_weights": (st.tuples(_contract_args), lambda c: ratios.sharing_weights(c[0])),
    "annuity_pv": (st.tuples(_terms), lambda t: ratios.annuity_pv(WakalahTerms(*t))),
    "discount_factor": (st.tuples(_terms), lambda t: ratios.discount_factor(WakalahTerms(*t))),
    "payment_factor": (st.tuples(_terms), lambda t: ratios.payment_factor(WakalahTerms(*t))),
    "fair_mudharabah": (st.tuples(_risks), lambda r: ratios.fair_mudharabah(_risk(r))),
    "cfair_mudharabah": (st.tuples(_contract_args, _risks),
                         lambda c, r: ratios.cfair_mudharabah(c[0][:2], _risk(r))),
    "cfair_musharakah": (st.tuples(_contract_args, _risks),
                         lambda c, r: ratios.cfair_musharakah(c[0], c[1], _risk(r))),
    "cfair_musharakah_external_mudharib": (
        st.tuples(_contract_args, _risks),
        lambda c, r: ratios.cfair_musharakah_external_mudharib(c[0], c[2], _risk(r))),
    "cfair_musharakah_wakalah": (
        st.tuples(_contract_args, _risks, _terms),
        lambda c, r, t: ratios.cfair_musharakah_wakalah(c[0], c[2], _risk(r), WakalahTerms(*t))),
    "two_point_fair_ratio": (_two_point, ratios.two_point_fair_ratio),
    "allocate": (st.tuples(_musharakah_variants, _contract_args, _terms, _risks),
                 lambda v, c, t, r: ratios.allocate(_spec(v, c, t), _risk(r))),
    "AllocationPlan.crossing": (
        st.tuples(_musharakah_variants, _contract_args, _terms, *[st.integers(0, 3) | numbers] * 2),
        lambda v, c, t, a, b: ratios.AllocationPlan.for_contract(_spec(v, c, t)).crossing(a, b)),
    "std_normal_cdf": (st.tuples(numbers), risk.std_normal_cdf),
    "gbm_closed_form": (_gbm, lambda *g: risk.gbm_closed_form(risk.GbmParams(*g))),
    "two_point_profile": (_two_point, lambda *p: risk.two_point_profile(risk.TwoPointScenario(*p))),
    "empirical_profile": (st.tuples(_draws, _capital_amounts),
                          lambda d, L: risk.empirical_profile(risk.EmpiricalSample(d, L))),
    "load_empirical_draws": (st.tuples(_draws, _capital_amounts), _read_draws),
    "monte_carlo_profile": (
        st.tuples(st.sampled_from([risk.GbmParams, risk.TwoPointScenario]), _gbm, _two_point,
                  st.integers(1, 10**4), _rarely(st.integers(0, 2**64 - 1), numbers, 8)),
        lambda kind, gbm, two_point, paths, seed: risk.monte_carlo_profile(
            kind(*gbm) if kind is risk.GbmParams else kind(*two_point), risk.McConfig(paths, seed=seed))),
    "gauss_solve": (
        st.one_of([st.tuples(st.lists(_entries(n), min_size=n, max_size=n), _entries(n)) for n in (2, 3, 4)]),
        verification.gauss_solve),
    "musharakah_system": (st.tuples(_contract_args, _expectations),
                          lambda c, e: verification.musharakah_system(c[0], c[1], *e)),
    "solve_fairness_system": (st.tuples(_contract_args, _expectations),
                              lambda c, e: verification.solve_fairness_system(c[0], c[1], *e)),
    "wakalah_system": (st.tuples(_contract_args, _expectations, _terms),
                       lambda c, e, t: verification.wakalah_system(c[0], c[2], *e, WakalahTerms(*t))),
    "solve_wakalah_system": (
        st.tuples(_contract_args, _expectations, _terms),
        lambda c, e, t: verification.solve_wakalah_system(c[0], c[2], *e, WakalahTerms(*t))),
    "verify_allocation": (st.tuples(_musharakah_variants, _contract_args, _terms, _expectations,
                                    _rarely(st.just(1e-9), numbers, 4)), _verified),
}


def _floats(value: object):
    """Every float in a result, records, tuples and lists walked."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)


def test_every_public_engine_function_is_called():
    public = {name for module in (ratios, risk, verification) for name, value in vars(module).items()
              if not name.startswith("_") and callable(value) and not isinstance(value, type)
              and value.__module__ == module.__name__}
    assert public | {"AllocationPlan.crossing"} == set(ENGINE_CALLS)


@pytest.mark.parametrize("name", sorted(ENGINE_CALLS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_an_engine_call_is_finite_or_a_contract_error(workdir, name, data):
    strategy, call = ENGINE_CALLS[name]
    args = data.draw(strategy)
    if name == "load_empirical_draws":
        args = (*args, workdir / "engine_draws.txt")
    try:
        result = call(*args)
    except ContractError:
        return
    assert all(map(math.isfinite, _floats(result))), result


_SPEC = ContractSpec(Variant.CFAIR_MUDHARABAH, (2, 3))
_PROFILE = RiskProfile(1.0, 0.25)


@pytest.mark.parametrize(
    "call",
    [
        lambda: risk.std_normal_cdf(math.nan),
        lambda: risk.std_normal_cdf(10**400),
        lambda: verification.gauss_solve([[1.0, 0.0], [0.0, 1.0]], [1.0, 10**400]),
        lambda: verification.gauss_solve([[math.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        lambda: verification.gauss_solve([[0.0, 1.0], [1.0, 1.0]], [math.inf, 0.0]),  # fsum(inf - inf)
        lambda: verification.gauss_solve([[1e308, 1e308], [-1e308, 1e308]], [1e308, 1e308]),
        lambda: verification.verify_allocation(ratios.allocate(_SPEC, _PROFILE), _SPEC, _PROFILE, 10**400),
    ],
    ids=["cdf-nan", "cdf-huge-int", "solve-huge-int", "solve-nan", "solve-inf", "solve-overflow",
         "verify-huge-tol"],
)
def test_an_engine_input_without_a_finite_result_is_a_contract_error(call):
    with pytest.raises(ContractError):
        call()
