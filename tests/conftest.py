"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

from typing import Any

import numpy as np
from hypothesis import strategies as st

from plsfair import ContractSpec


def finite_floats(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


#: Rating coefficients in the range the engines are specified for.
ratings_strategy = st.lists(finite_floats(0.1, 10.0), min_size=2, max_size=8)

#: Investment risks of viable contracts.
rho_strategy = finite_floats(0.0, 1.0)


@st.composite
def simplex_strategy(draw, size: int | None = None, min_size: int = 2, max_size: int = 8):
    """Random capital shares: positive fractions summing to 1."""
    if size is None:
        size = draw(st.integers(min_value=min_size, max_value=max_size))
    raw = draw(
        st.lists(finite_floats(0.01, 1.0), min_size=size, max_size=size)
    )
    total = sum(raw)
    return tuple(v / total for v in raw)


def random_simplex(rng: np.random.Generator, size: int) -> tuple[float, ...]:
    raw = rng.random(size) + 0.01
    total = raw.sum()
    return tuple(float(v / total) for v in raw)


def random_ratings(rng: np.random.Generator, size: int) -> tuple[float, ...]:
    """Log-uniform ratings in [0.1, 10]."""
    return tuple(float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(10.0), size)))


def contract_to_dict(spec: ContractSpec) -> dict[str, Any]:
    """Serialize a contract to the JSON document layout (schema 1)."""
    doc: dict[str, Any] = {
        "schema": 1,
        "variant": spec.variant.value,
        "ratings": list(spec.ratings),
        "capital": list(spec.capital),
    }
    if spec.wakalah is not None:
        doc["wakalah"] = {"r": spec.wakalah.r, "T": spec.wakalah.T, "k": spec.wakalah.k}
    return doc
