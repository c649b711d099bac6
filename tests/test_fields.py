import json
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import is_canonical_q
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


def test_q_inverse_and_division_never_give_floats():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.div(1, 2) == Fraction(1, 2) and type(QQ.div(1, 2)) is Fraction
    assert type(QQ.div(6, 3)) is int and QQ.div(6, 3) == 2
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(-1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int


# any int or Fraction, integral or not, with or without denominator 1
raw_q = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=50),
    st.integers(-50, 50).map(Fraction),
)

Q_OPS = {
    "add": (QQ.add, lambda a, b: Fraction(a) + Fraction(b)),
    "sub": (QQ.sub, lambda a, b: Fraction(a) - Fraction(b)),
    "mul": (QQ.mul, lambda a, b: Fraction(a) * Fraction(b)),
    "div": (QQ.div, lambda a, b: Fraction(a) / Fraction(b)),
}


@given(raw_q, raw_q)
def test_q_binary_ops_are_fraction_arithmetic_in_canonical_form(a, b):
    for name, (op, ref) in Q_OPS.items():
        if name == "div" and b == 0:
            continue
        got, want = op(a, b), ref(a, b)
        assert got == want, name
        assert is_canonical_q(got), (name, a, b, got)
        assert isinstance(got, int) == (want.denominator == 1), name


@given(raw_q)
def test_q_unary_ops_are_fraction_arithmetic_in_canonical_form(a):
    results = [(QQ.coerce(a), Fraction(a)), (QQ.neg(a), -Fraction(a))]
    results.append((QQ.parse(QQ.format(a)), Fraction(a)))
    if a != 0:
        results.append((QQ.inv(a), 1 / Fraction(a)))
    for got, want in results:
        assert got == want
        assert is_canonical_q(got), (a, got)
        assert isinstance(got, int) == (want.denominator == 1)


def test_q_parse_is_canonical():
    for text, want in (("4/2", 2), ("-6/3", -2), ("0/5", 0), ("7", 7), ("-3/6", Fraction(-1, 2))):
        got = QQ.parse(text)
        assert got == want and type(got) is type(want), text


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


@pytest.mark.parametrize("text", ["1\n", "１", "٣", "-٣", "1/２", "٣/２", "7/2\n"])
def test_scalars_take_plain_ascii_digits_only(text):
    with pytest.raises(ParseError, match="not a rational scalar"):
        QQ.parse(text)
    if "/" not in text:
        with pytest.raises(ParseError, match="not a residue"):
            GF(7).parse(text)


@pytest.mark.parametrize("tag", ["F７", "F7\n", "F٧", "Q\n"])
def test_field_tags_take_plain_ascii_digits_only(tag):
    with pytest.raises(ParseError, match="unknown field tag"):
        field_from_string(tag)
