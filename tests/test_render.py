"""The CSV renderer writes every float64 as ``repr`` does, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binfactor import render
from binfactor.render import csv_rows


def repr_rows(columns) -> bytes:
    """The reference: each float through ``repr``, each integer through
    ``str``, joined by commas and newlines."""
    fields = [
        map(repr, np.asarray(c, dtype=float).tolist()) if np.asarray(c).dtype.kind == "f"
        else map(str, np.asarray(c).astype(int).tolist())
        for c in columns
    ]
    return "".join(",".join(row) + "\n" for row in zip(*fields)).encode()


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def assert_as_repr(values):
    values = np.asarray(values, dtype=float)
    got, want = csv_rows([values]).split(b"\n"), repr_rows([values]).split(b"\n")
    bad = [(float(v), g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:10]
    assert got == want


def exact_ties():
    """Floats whose exact decimal has 18 significant digits ending in 5, so
    that two 17-digit decimals are equally near: m / 4 for odd m from 4e15
    to 9e15 (x.25 and x.75 from 1e15 on), and their neighbours."""
    m = np.concatenate([start + np.arange(1, 400, 2) for start in (4 * 10**15, 6 * 10**15, 9 * 10**15 - 400)])
    ties = m / 4.0
    return np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])


NAMED = {
    "zeros": [0.0, -0.0],
    "not finite": [math.inf, -math.inf, math.nan, -math.nan],
    "subnormals": [5e-324, -5e-324, 1e-323, 2.2250738585072009e-308, 1e-310, 4.9406564584124654e-320],
    "smallest normal": [2.2250738585072014e-308, -2.2250738585072014e-308],
    "largest finite": [1.7976931348623157e308, -1.7976931348623157e308],
    "powers of two": [2.0**k for k in range(-1074, 1024)],
    "powers of ten": [float(f"1e{e}") for e in range(-323, 309)],
    "fixed to exponent, small": [9.999999999999999e-05, 0.0001, 0.00010000000000000002, 1e-05],
    "fixed to exponent, large": [9999999999999998.0, 1e16, 1.0000000000000002e16, 1e15, -1e15],
    "integer parts": [123.0, -100.0, 1234567.0, -123456.7, 99999999999999.9, 999999999999999.9],
    "1 to 17 digits": [
        float(s[:k] + "e" + str(e))
        for s in ("12345678901234567", "98765432109876543", "10000000000000001")
        for k in range(1, 18)
        for e in (-20, -6, -5, -1, 0, 5, 15, 16, 22)
    ],
    "17-digit ties": exact_ties().tolist(),
    "bounds of the fast path": [1e-270, 1.0000000000000001e-270, 1e270, 9.999999999999999e269],
}


@pytest.mark.parametrize("name", NAMED)
def test_named_values(name):
    values = NAMED[name]
    assert_as_repr(values + [-v for v in values])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_every_bit_pattern(bits):
    assert_as_repr(from_bits(bits))


def test_a_million_bit_patterns():
    assert_as_repr(from_bits(np.random.default_rng(20).integers(0, 2**64, 10**6, dtype=np.uint64)))


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e6])
def test_normal_and_rounded_values(scale):
    rng = np.random.default_rng(21)
    normal = rng.standard_normal(50_000) * scale
    rounded = [round(v, k) for v, k in zip(normal.tolist(), rng.integers(-3, 14, 50_000).tolist())]
    assert_as_repr(np.concatenate([normal, rounded]))


def test_ties_go_to_repr():
    # D + f within 1e-9 of a tie between two candidates: the fast path
    # leaves the choice to repr.
    ties = exact_ties()[:600]
    assert render._shortest(ties)[3].all()


def test_rows_mix_floats_and_integers():
    rng = np.random.default_rng(22)
    columns = [
        rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 18, 1000),
        rng.integers(-(2**63), 2**63 - 1, 1000),
        rng.integers(0, 3, 1000),
        rng.uniform(size=1000) < 0.5,
        np.exp(rng.uniform(-700, 700, 1000)),
    ]
    assert csv_rows(columns) == repr_rows(columns)
    assert csv_rows([c[:0] for c in columns]) == b""
