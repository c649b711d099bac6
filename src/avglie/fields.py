"""Exact scalar arithmetic over Q and over prime fields F_p.

Scalars are plain Python values.  Over Q a scalar is an ``int`` when it
is integral and otherwise a reduced ``fractions.Fraction`` with
denominator > 1; this one canonical form keeps the common integral case
off Fraction arithmetic, and int and Fraction compare, hash and print
alike.  Over F_p a scalar is a canonical residue in ``range(p)``.  A field
object supplies the arithmetic, parsing and printing; no floating point
exists anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import ParseError

# ASCII digits, matched in full (\d takes other digits, $ a final newline)
_Q_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INT_RE = re.compile(r"-?[0-9]+")


# int() refuses longer digit strings (CPython's default limit), so longer
# scalars are refused as a ParseError before it is called.
MAX_SCALAR_DIGITS = 4300


def _parse_int(digits: str, text: str) -> int:
    if len(digits.lstrip("-")) > MAX_SCALAR_DIGITS:
        raise ParseError(
            f"scalar {text[:12]}... ({len(text)} characters) has more than"
            f" {MAX_SCALAR_DIGITS} digits"
        )
    return int(digits)


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015); above it the test could be fooled.
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality of {n} is undecided at or above {PRIME_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the two supported exact fields."""

    finite = False
    name = "?"

    def coerce(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class Rationals(Field):
    """The field Q.  Each operation returns the canonical form: an int when
    the value is integral, else a reduced Fraction with denominator > 1."""

    finite = False
    name = "Q"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return x.numerator if x.denominator == 1 else x
        raise TypeError(f"cannot coerce {x!r} into Q")

    # An int result is canonical; a Fraction result may have denominator 1.
    # The test is inline in each operation, which sits on every hot loop.
    def add(self, a, b):
        c = a + b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        c = -a
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        if a.__class__ is int:
            return a if a in (1, -1) else Fraction(1, a)
        n, d = a.numerator, a.denominator
        return d // n if n in (1, -1) else Fraction(d, n)

    def parse(self, text: str):
        if not _Q_RE.fullmatch(text):
            raise ParseError(f"not a rational scalar: {text!r}")
        num, _, den = text.partition("/")
        n = _parse_int(num, text)
        if den:
            d = _parse_int(den, text)
            if d == 0:
                raise ParseError(f"zero denominator: {text!r}")
            return self.coerce(Fraction(n, d))
        return n

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """The field F_p with scalars stored as canonical residues in [0, p)."""

    finite = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)

    def parse(self, text: str):
        if not _INT_RE.fullmatch(text):
            raise ParseError(f"not a residue: {text!r}")
        return _parse_int(text, text) % self.p

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


QQ = Rationals()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


@lru_cache(maxsize=64)
def field_from_string(text: str) -> Field:
    """Parse a field tag: ``"Q"`` or ``"F<p>"`` with p prime.  A document
    and each one nested in it carry the tag, so recent ones are kept."""
    if text == "Q":
        return QQ
    m = re.fullmatch(r"F([0-9]+)", text)
    if m:
        digits = m.group(1).lstrip("0") or "0"
        # the length test comes first: int() refuses over 4300 digits
        if len(digits) > len(str(PRIME_BOUND)) or int(digits) >= PRIME_BOUND:
            raise ParseError(
                f"field modulus in {text!r} is at or above {PRIME_BOUND}, the bound"
                " below which primality is decided exactly"
            )
        p = int(digits)
        if not is_prime(p):
            raise ParseError(f"field modulus {p} is not prime")
        return GF(p)
    raise ParseError(f"unknown field tag: {text!r}")
