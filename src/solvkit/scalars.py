"""Exact Gaussian-rational scalars, and the one rule for real values.

A Scalar is re + im*i with both parts fractions.Fraction. The toolkit
computes on real data in int / Fraction; exact(x) is the single place
that decides whether a value is real, and it refuses any other. Scalars
stay only where complex numbers belong: complex input before it is
realified, and the coordinate forms of expforms. Floats are rejected; go
through Fraction explicitly if you really mean a binary float.

String form is "p/q" for real values and "p/q+r/s*i" in general, e.g.
"-1/2", "3", "0+1*i", "1/2-2/3*i". parse_scalar accepts the same grammar.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Tuple, Union

Rat = Union[int, Fraction]

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, float):
        raise TypeError("refusing float %r; use Fraction for exact input" % (x,))
    return Fraction(x)


class Scalar:
    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar((self.re * o.re + self.im * o.im) / n2,
                      (self.im * o.re - self.re * o.im) / n2)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return "Scalar(%r)" % (format_scalar(self),)

    def __str__(self):
        return format_scalar(self)


def _format_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def format_scalar(z: Union[Rat, Scalar]) -> str:
    if not isinstance(z, Scalar):
        return _format_rat(_as_fraction(z))
    if z.im == 0:
        return _format_rat(z.re)
    imag = _format_rat(abs(z.im)) + "*i"
    sign = "+" if z.im > 0 else "-"
    if z.re == 0 and z.im > 0:
        return imag
    if z.re == 0:
        return "-" + imag
    return _format_rat(z.re) + sign + imag


def _parse_rat(text: str) -> Fraction:
    if not _RAT_RE.match(text):
        raise ValueError("bad rational literal %r" % (text,))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,))


def _parse_parts(text) -> Tuple[Fraction, Fraction]:
    """(re, im) of "p/q" or "p/q+r/s*i" (also bare "r/s*i").

    Integers arriving from JSON are accepted as-is; floats and booleans
    (JSON true/false, which Python reads as ints) are rejected.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text), Fraction(0)
    if not isinstance(text, str):
        raise ValueError("scalar literal must be a string or int, got %r" % (text,))
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    if s.endswith("i"):
        body = s[:-1]
        if body.endswith("*"):
            body = body[:-1]
        # split real and imaginary at the last top-level sign
        cut = max(body.rfind("+", 1), body.rfind("-", 1))
        if cut > 0 and body[cut - 1] == "/":
            raise ValueError("bad scalar literal %r" % (text,))
        if cut > 0:
            re_part, im_part = body[:cut], body[cut:]
        else:
            re_part, im_part = "0", body
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = _parse_rat(im_part)
        return _parse_rat(re_part), im
    return _parse_rat(s), Fraction(0)


def parse_scalar(text) -> Scalar:
    """Parse "p/q" or "p/q+r/s*i" (also bare "r/s*i") into a Scalar."""
    return Scalar(*_parse_parts(text))


def _real(re_part: Fraction, im_part: Fraction) -> Fraction:
    if im_part:
        raise ValueError("real entry required")
    return re_part


def parse_real(text) -> Fraction:
    """The value of a literal in parse_scalar's grammar, read without a
    Scalar; ValueError if it is malformed or not real."""
    return _real(*_parse_parts(text))


def exact(x) -> Fraction:
    """int / Fraction / str / Scalar as a Fraction: the one realness rule.

    A value with a nonzero imaginary part is refused with ValueError and a
    float with TypeError, so every real layer reads its input through this.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return parse_real(x)
    if isinstance(x, Scalar):
        return _real(x.re, x.im)
    return _as_fraction(x)


def sc(x) -> Scalar:
    """Coerce int / Fraction / str / Scalar to Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    return Scalar(x)
