"""Exact arithmetic in the ring Z[x]/(x^m - 1), with x a primitive
m-th root of unity.

Values are coefficient vectors of length m; multiplication is cyclic
convolution and conjugation reverses exponents.  Because x^m - 1 has
repeated factors' worth of redundancy, raw vectors are not canonical:
equality, rationality tests and extraction reduce modulo the m-th
cyclotomic polynomial first.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantViolation


def _poly_mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_divmod_exact(num: tuple, den: tuple) -> tuple[tuple, tuple]:
    """Division by a monic integer polynomial; exact over Q."""
    num = list(num)
    dn = len(den) - 1
    if dn == 0:
        return tuple(num), ()
    q = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dn] = c
        for j, d in enumerate(den):
            num[i - dn + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return tuple(q), tuple(num)


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    num = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    den: tuple = (1,)
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, cyclotomic_poly(d))
    q, r = _poly_divmod_exact(num, den)
    if r:
        raise InvariantViolation(f"x^{m} - 1 is not divisible by its proper factors")
    return tuple(int(c) for c in q)


class Cyc:
    """An element of Q(zeta_m) stored as a length-m coefficient vector."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != m:
            raise ValueError(f"need {m} coefficients, got {len(self.coeffs)}")

    @staticmethod
    def zero(m: int) -> "Cyc":
        return Cyc(m, (0,) * m)

    @staticmethod
    def from_rational(m: int, value) -> "Cyc":
        return Cyc(m, (Fraction(value),) + (0,) * (m - 1))

    @staticmethod
    def root(m: int, k: int) -> "Cyc":
        c = [0] * m
        c[k % m] = 1
        return Cyc(m, c)

    def _binop(self, other, op):
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(self.m, other)
        if self.m != other.m:
            raise ValueError("mixed cyclotomic moduli")
        return Cyc(self.m, tuple(op(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return Cyc(self.m, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(self.m, tuple(a * other for a in self.coeffs))
        if self.m != other.m:
            raise ValueError("mixed cyclotomic moduli")
        out = [0] * self.m
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        k = i + j
                        if k >= self.m:
                            k -= self.m
                        out[k] += a * b
        return Cyc(self.m, out)

    __rmul__ = __mul__

    def conj(self) -> "Cyc":
        out = [0] * self.m
        for k, a in enumerate(self.coeffs):
            out[-k % self.m] += a
        return Cyc(self.m, out)

    def lift(self, new_m: int) -> "Cyc":
        """Re-express in Q(zeta_{new_m}) for a multiple of the modulus."""
        if new_m % self.m:
            raise ValueError(f"{new_m} is not a multiple of {self.m}")
        step = new_m // self.m
        out = [0] * new_m
        for k, a in enumerate(self.coeffs):
            out[k * step] += a
        return Cyc(new_m, out)

    def reduced(self) -> tuple[Fraction, ...]:
        """Canonical coordinates modulo the m-th cyclotomic polynomial."""
        phi = cyclotomic_poly(self.m)
        _, rem = _poly_divmod_exact(self.coeffs, phi)
        deg = len(phi) - 1
        rem = tuple(Fraction(c) for c in rem) + (Fraction(0),) * (deg - len(rem))
        return rem

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(self.m, other)
        if not isinstance(other, Cyc) or self.m != other.m:
            return NotImplemented
        return self.reduced() == other.reduced()

    def __hash__(self):
        return hash((self.m, self.reduced()))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.reduced()[1:])

    def as_rational(self) -> Fraction:
        red = self.reduced()
        if any(c != 0 for c in red[1:]):
            raise ValueError("value is irrational")
        return red[0]

    def to_complex(self) -> complex:
        return sum(
            (complex(a) * cmath.exp(2j * cmath.pi * k / self.m)
             for k, a in enumerate(self.coeffs) if a),
            complex(0),
        )

    def __repr__(self):
        return f"Cyc({self.m}, {self.coeffs})"
