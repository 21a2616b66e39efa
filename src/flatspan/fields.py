"""Exact coefficient fields: the rationals and prime fields.

Coefficients are plain Python values; the field object supplies the
arithmetic.  A QQ element is an ``int`` when it is integral and a
``fractions.Fraction`` only when its denominator is not 1; a GF(p) element
is an int in ``[0, p)``.  This keeps the polynomial layer free of
per-coefficient wrapper objects, and the integers that make up most QQ
coefficients pay for machine-int operations only.  Both forms of a value
compare and hash equal (``Fraction(3) == 3``), so the choice never shows
in a polynomial's equality, hash or text.
"""

from __future__ import annotations

from fractions import Fraction

from .budget import InputError


class FieldError(InputError):
    pass


# longest numerator or denominator of a QQ value, in digits: the
# interpreter's default limit for converting between an int and its digits
MAX_DIGITS = 4300


def too_long(m: int) -> bool:
    """Whether ``m >= 0`` has more than ``MAX_DIGITS`` digits.  Its bit
    length decides unless ``m`` lies between ``8**MAX_DIGITS`` and
    ``16**MAX_DIGITS``, so the test is O(1) below and above that band."""
    bits = m.bit_length()
    return bits > 4 * MAX_DIGITS or (bits > 3 * MAX_DIGITS and m >= 10**MAX_DIGITS)


class Field:
    """Common type of the exact coefficient fields, :class:`RationalField`
    and :class:`PrimeField`; each supplies ``add``, ``sub``, ``mul``,
    ``neg``, ``inv``, ``from_int``, ``from_fraction`` and ``to_str``."""

    characteristic: int
    zero: object
    one: object


class RationalField(Field):
    """The field of rational numbers with arbitrary-precision arithmetic.

    Every operation returns its result in canonical form: an ``int`` when
    integral, otherwise a ``Fraction``."""

    characteristic = 0
    zero = 0
    one = 1

    def add(self, a, b):
        r = a + b
        return r if r.__class__ is int or r.denominator != 1 else r.numerator

    def sub(self, a, b):
        r = a - b
        return r if r.__class__ is int or r.denominator != 1 else r.numerator

    def mul(self, a, b):
        r = a * b
        return r if r.__class__ is int or r.denominator != 1 else r.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero in QQ")
        r = 1 / Fraction(a)
        return r if r.denominator != 1 else r.numerator

    def from_int(self, n: int):
        return n

    def from_fraction(self, num: int, den: int):
        if den == 0:
            raise FieldError("zero denominator")
        r = Fraction(num, den)
        return r if r.denominator != 1 else r.numerator

    def to_str(self, a) -> str:
        """``a`` as text; a numerator or denominator past ``MAX_DIGITS``
        digits is a :class:`FieldError`, as no parse could read it back."""
        if too_long(max(abs(a.numerator), a.denominator)):
            raise FieldError(f"a coefficient longer than {MAX_DIGITS} digits cannot be written")
        return str(a)

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic primality for ``p`` below :data:`PRIMALITY_LIMIT`."""
    if p < 2 or any(p % q == 0 for q in _BASES):
        return p in _BASES
    if p < 43 * 43:  # no prime factor up to its square root
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # a witnesses compositeness when a^d != 1 and a^(2^r d) != -1 for all r < s
    for a in _BASES:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 1 << r, p) != p - 1 for r in range(s)):
            return False
    return True


def _too_large(p) -> FieldError:
    return FieldError(f"{p} is too large; a prime field needs p below {PRIMALITY_LIMIT}")


class PrimeField(Field):
    """GF(p) for a prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p >= PRIMALITY_LIMIT:
            raise _too_large(p)
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise FieldError(f"division by zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def from_fraction(self, num: int, den: int):
        if den % self.p == 0:
            raise FieldError(f"denominator {den} is zero in GF({self.p})")
        return (num * self.inv(den)) % self.p

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_name(name: str) -> Field:
    """Parse a field tag: ``QQ`` or ``Fp:<p>`` (also accepts ``Fp <p>``).

    Digits too many for any ``p`` below :data:`PRIMALITY_LIMIT` are refused
    before ``int()``, which would reject more than 4300 of them."""
    name = name.strip()
    if name == "QQ":
        return QQ
    digits = name[3:].strip()
    if name[:3] in ("Fp:", "Fp ") and digits.isdecimal():
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(PRIMALITY_LIMIT)):
            raise _too_large(digits)
        return GF(int(digits))
    raise FieldError(f"unknown field {name!r}; expected QQ or Fp:<p>")


def field_name(field: Field) -> str:
    if isinstance(field, RationalField):
        return "QQ"
    if isinstance(field, PrimeField):
        return f"Fp:{field.p}"
    raise FieldError(f"unknown field object {field!r}")
