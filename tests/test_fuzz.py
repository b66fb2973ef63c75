"""Input fuzzing of the CLI: arbitrary contract documents never trace back.

Every document, however malformed, must end ``allocate``, ``sweep`` and
``verify`` with a documented exit code (0, 1, 2 or 3); an input error is
reported on a single ``error:`` line. The draws path of an empirical model
is one of three names next to the contract file (a valid draws file, a
missing name, a directory), so no example reads outside the test's own
directory.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plsfair.cli import main
from plsfair.contracts import MANAGED_VARIANTS, MUDHARABAH_VARIANTS, Variant

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
#: Any JSON number, including the extremes and integers beyond the float range.
numbers = st.one_of(
    st.integers(-3, 100),
    st.floats(),
    st.sampled_from([10**400, -(10**400), 1e-320, 1e300, 1e6, 0.05, -700.0, 0.0]),
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


def _gbm(mu: float, sigma: float) -> dict:
    return {
        "schema": 1, "variant": "cfair_mudharabah", "ratings": [2, 3],
        "model": {"kind": "gbm", "mu": mu, "sigma": sigma, "T": 1}, "capital_amount": 100,
    }


def _empirical(path: str) -> dict:
    return {
        "schema": 1, "variant": "musharakah_self_managed", "ratings": [1, 2], "capital": [0.5, 0.5],
        "model": {"kind": "empirical", "path": path}, "capital_amount": 100,
    }


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
def test_no_exception_escapes_the_cli(workdir, doc):
    path = workdir / "contract.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command, *flags in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path), *flags])
        assert code in (0, 1, 2, 3)
        if code in (1, 2):
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1, message
