"""Byte-level regression guard on the CLI's numeric output.

For one contract of each variant, the sha256 of ``allocate --json`` stdout,
of a 2001-step ``sweep`` CSV and of the ``allocate`` text report are pinned.
Any change to the ratio engine, the verifier or the formatting that moves a
single bit of a printed float, or a character of a report, changes a
digest. The digests were recorded with CPython 3.11 on x86-64 Linux (glibc
libm); the wakalah contracts go through ``log1p``/``expm1``, so a platform
whose libm rounds those differently may disagree in the last bit. The GBM
closed form sums its quadrature with ``math.fsum``, which rounds alike on
every supported Python, where the built-in ``sum`` of floats became
compensated in 3.12: the GBM contract's digests hold on 3.10 to 3.13.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from plsfair.cli import main

CONTRACTS = {
    "fair_mudharabah": {
        "schema": 1,
        "variant": "fair_mudharabah",
        "ratings": [3, 3],
        "model": {"kind": "fixed_rho", "rho": 0.3, "delta": 7.0},
    },
    "cfair_mudharabah": {
        "schema": 1,
        "variant": "cfair_mudharabah",
        "ratings": [2.5, 7.0],
        "model": {"kind": "two_point", "beta": 0.65, "r_plus": 131.0, "r_minus": 83.0},
        "capital_amount": 100.0,
    },
    "musharakah_self_managed": {
        "schema": 1,
        "variant": "musharakah_self_managed",
        "ratings": [3, 5, 4, 2, 6.5],
        "capital": [0.125, 0.375, 0.25, 0.0, 0.25],
        "model": {"kind": "fixed_rho", "rho": 0.41, "e_profit": 12.5},
    },
    "musharakah_external_mudharib": {
        "schema": 1,
        "variant": "musharakah_external_mudharib",
        "ratings": [1.5, 4, 2, 3],
        "capital": [0.2, 0.7, 0.1],
        "model": {"kind": "fixed_rho", "rho": 0.17, "delta": 3.25},
    },
    "musharakah_wakalah": {
        "schema": 1,
        "variant": "musharakah_wakalah",
        "ratings": [2, 3, 1.25, 4],
        "capital": [0.5, 0.3, 0.2],
        "wakalah": {"r": 0.035, "T": 7.5, "k": 6},
        "model": {"kind": "fixed_rho", "rho": 0.62, "delta": 11.0},
    },
    "musharakah_wakalah_gbm": {
        "schema": 1,
        "variant": "musharakah_wakalah",
        "ratings": [2, 3, 1.25, 4],
        "capital": [0.5, 0.3, 0.2],
        "wakalah": {"r": 0.035, "T": 7.5, "k": 6},
        "model": {"kind": "gbm", "mu": 0.1, "sigma": 0.2, "T": 1},
        "capital_amount": 100.0,
    },
}

GOLDEN = {
    "cfair_mudharabah": (
        "7ad6c3534061cf743d513e9a0dcff4cb231e19868164136711eb209a50646b81",
        "1b39c9c0310ddbe3ac0e7b8bbc7281d7959d62caba2538b03cd6bb8b903100bc",
        "840ae220f7b46c833f097a263e6ffe866eeecc5632d9f0ba2f9a1b4877685f42",
    ),
    "fair_mudharabah": (
        "8e800a1d0e31f3428f9990b03f3ce020d19dc8c4391dbc228155addb3aa5669a",
        "69c66518b2c6547b448dc57dec44d33f1482e148cc0879d228ac14ec2b033899",
        "be5377237243d8868458b9951eb1714f1c209b8de59619eb719d3e07c6a0e0e6",
    ),
    "musharakah_external_mudharib": (
        "b77ad3021a1642c088130176388f7036580f0eddb0a508839059d3e8cdd89e5c",
        "9c888d13208f9b2eb67482187fa93f8753e900a7d410a9faabc7ad657bb95679",
        "3f09d630e43a7fed37cfed53b6e9010f1ad32c60487332a126b409a33e441dfe",
    ),
    "musharakah_self_managed": (
        "ae4bc0c4460693a7d7f634277cd1c3834c2bd3b78a81e1ae219c718600a099f1",
        "3673d4ee8d70efc160d880e2b52bbb6f6cd857f41797dc6bce30ae11698662e2",
        "f64164ea21cd0cf426f66ddffbf7fd4a904cba4782867633fa24a6aaf90a806c",
    ),
    "musharakah_wakalah": (
        "d3f51009dd86b4e57aa3c3ebf10e4ec2316b491112997559c7bf7143f579d463",
        "b308b62b5d46417226beec5c9f22dbac8842cc313e0671bda5d032a97ec2bc81",
        "b2d88a5f8aa441aa1bc229dc4ecd1be4b9b9c5614c5690f444c3092118b571b7",
    ),
    "musharakah_wakalah_gbm": (
        "e3dd5b62a7d537a2ad1c8ed83ff0049f08e945796086dc35b99aab356ff5d0b5",
        "b308b62b5d46417226beec5c9f22dbac8842cc313e0671bda5d032a97ec2bc81",
        "dc990efc3d30f533de7cd53b5599953af531199118a547ad2ed9c374af71ce5e",
    ),
}


def _digests(tmp_path, capsys, name):
    contract = tmp_path / f"{name}.json"
    contract.write_text(json.dumps(CONTRACTS[name]), encoding="utf-8")
    assert main(["allocate", str(contract), "--json"]) == 0
    allocate_out = capsys.readouterr().out.encode("utf-8")
    csv_path = tmp_path / f"{name}.csv"
    assert main(["sweep", str(contract), "--steps", "2001", "-o", str(csv_path)]) == 0
    assert main(["allocate", str(contract)]) == 0
    report_out = capsys.readouterr().out.encode("utf-8")
    return (
        hashlib.sha256(allocate_out).hexdigest(),
        hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        hashlib.sha256(report_out).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_output_is_byte_identical(tmp_path, capsys, name):
    assert _digests(tmp_path, capsys, name) == GOLDEN[name]
