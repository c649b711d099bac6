import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from avglie.errors import ParseError
from avglie.fields import (
    GF,
    MAX_SCALAR_DIGITS,
    PRIME_BOUND,
    QQ,
    field_from_string,
    is_prime,
)


def test_field_tags_round_trip():
    assert field_from_string("Q") is QQ
    assert field_from_string("F5") == GF(5)
    assert field_from_string("F2").p == 2
    with pytest.raises(ParseError):
        field_from_string("F4")
    with pytest.raises(ParseError):
        field_from_string("R")


def test_field_equality_is_structural():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)
    assert QQ == field_from_string("Q")


def test_prime_check():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(ValueError):
        GF(6)


def test_rational_parse_strictness():
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert QQ.parse("7") == 7
    for bad in ("1.5", "1e3", " 1", "1/ 2", "1/-2", "/3", ""):
        with pytest.raises(ParseError):
            QQ.parse(bad)
    with pytest.raises(ParseError):
        QQ.parse("1/0")


def test_prime_field_parse_and_canonical_residue():
    F7 = GF(7)
    assert F7.parse("13") == 6
    assert F7.parse("-1") == 6
    assert F7.format(F7.parse("13")) == "6"
    with pytest.raises(ParseError):
        F7.parse("2/3")


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_rational_print_parse_round_trip(n, d):
    x = Fraction(n, d)
    assert QQ.parse(QQ.format(x)) == x


@given(st.integers(-10**6, 10**6))
def test_f5_arithmetic_matches_integers(n):
    F5 = GF(5)
    a = F5.coerce(n)
    assert F5.add(a, F5.neg(a)) == 0
    if a != 0:
        assert F5.mul(a, F5.inv(a)) == 1


def test_division():
    assert QQ.div(QQ.coerce(3), QQ.coerce(4)) == Fraction(3, 4)
    F5 = GF(5)
    assert F5.div(3, 4) == F5.mul(3, F5.inv(4))
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def _trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_miller_rabin_matches_trial_division():
    for n in range(10**5):
        assert is_prime(n) == _trial_division_is_prime(n), n


def test_large_moduli():
    assert is_prime(10**18 + 3)
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    assert field_from_string("F1000000000000000003").p == 10**18 + 3
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)
    for tag in (f"F{PRIME_BOUND}", "F" + "7" * 5000):
        with pytest.raises(ParseError, match=str(PRIME_BOUND)):
            field_from_string(tag)


def _check_lie_doc(tmp_path, tag, first_entry="0"):
    doc = {
        "kind": "lie_algebra",
        "field": tag,
        "dim": 2,
        "bracket": {
            "shape": [2, 2, 2],
            "entries": [first_entry, "0", "0", "1", "0", "-1", "0", "0"],
        },
    }
    path = tmp_path / "lie.json"
    path.write_text(json.dumps(doc))
    return subprocess.run(
        [sys.executable, "-m", "avglie.cli", "check", str(path)],
        capture_output=True,
        text=True,
        timeout=10,
    )


def test_cli_large_modulus_is_bounded(tmp_path):
    proc = _check_lie_doc(tmp_path, "F1000000000000000003")
    assert proc.returncode in (0, 1)
    proc = _check_lie_doc(tmp_path, f"F{PRIME_BOUND}")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["clause"] == "parse-error"


def test_scalars_over_the_digit_limit_are_parse_errors(tmp_path):
    ones = "1" * MAX_SCALAR_DIGITS
    assert QQ.parse(f"-{ones}/{ones}") == -1
    assert GF(7).parse(ones) == int(ones) % 7
    long = ones + "1"
    for bad in (long, "-" + long, f"1/{long}", f"{long}/2"):
        with pytest.raises(ParseError, match=str(MAX_SCALAR_DIGITS)):
            QQ.parse(bad)
    with pytest.raises(ParseError, match=str(MAX_SCALAR_DIGITS)):
        GF(7).parse("-" + long)
    for tag in ("Q", "F7"):
        proc = _check_lie_doc(tmp_path, tag, "5" * 5001)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["clause"] == "parse-error"
