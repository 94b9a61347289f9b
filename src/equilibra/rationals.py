"""Extended rationals: {-inf} | Q | {+inf} with a total order.

All equilibrium machinery runs on exact values; infinities appear in
requirements and thresholds.  Arithmetic that would form inf - inf raises,
since the underlying theory never forms it.
"""

from fractions import Fraction

__all__ = ["PINF", "NINF", "parse_rational", "format_rational", "parse_ext",
           "format_ext"]


class _Infinity:
    """Signed infinity; compares against Fraction/int/_Infinity.

    There is one object per sign: constructing, copying or unpickling one
    returns `PINF` or `NINF` itself, so `x is PINF` is a sound test."""

    __slots__ = ("sign",)
    _made = {}

    def __new__(cls, sign):
        self = cls._made.get(sign)
        if self is None:
            if sign not in (1, -1):
                raise ValueError(f"infinity sign {sign!r} is not 1 or -1")
            self = cls._made[sign] = super().__new__(cls)
            self.sign = sign
        return self

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return _Infinity, (self.sign,)

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"

    def __eq__(self, other):
        return isinstance(other, _Infinity) and other.sign == self.sign

    def __hash__(self):
        return hash(("inf", self.sign))

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign > other.sign
        return self.sign > 0

    def __ge__(self, other):
        return self == other or self > other

    def __neg__(self):
        return NINF if self.sign > 0 else PINF

    def __add__(self, other):
        if isinstance(other, _Infinity) and other.sign != self.sign:
            raise ArithmeticError("inf - inf is not formed")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, _Infinity) else -other)

    def __rsub__(self, other):
        return -self + other


PINF = _Infinity(1)
NINF = _Infinity(-1)

def parse_rational(text):
    """Parse a "p/q" or integer string into a Fraction; q > 0 and gcd = 1
    are required by the file format."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        p, q = int(num), int(den)
        if q <= 0:
            raise ValueError(f"rational {text!r}: denominator must be positive")
        f = Fraction(p, q)
        if f.numerator != p or f.denominator != q:
            raise ValueError(f"rational {text!r}: not in lowest terms")
        return f
    return Fraction(int(text))


def format_rational(f):
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_ext(text):
    text = text.strip()
    if text in ("+inf", "inf"):
        return PINF
    if text == "-inf":
        return NINF
    return parse_rational(text)


def format_ext(x):
    if isinstance(x, _Infinity):
        return "+inf" if x.sign > 0 else "-inf"
    return format_rational(x)
