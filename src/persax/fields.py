"""Exact coefficient fields: the prime fields GF(p) and the rationals QQ.

A field is an immutable, hashable object with one element protocol:
``zero``, ``one``, ``coerce``, ``add``, ``sub``, ``mul``, ``neg`` and
``inv``.  Elements of GF(p) are ints reduced mod p, and elements of QQ are
``Fraction``s.  Both the ``linalg`` kernels and the bars path compute over
these objects, and this module imports nothing else from the package, so the
bars path loads no linear algebra.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class GF:
    """The prime field with p elements; elements are ints reduced mod p.

    ``p`` must be an int: a float that equals a prime is refused, since its
    entries would be floats and no reduction could invert them.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError(f"characteristic {p!r} is not an int")
        # trial division stays under 46,341 steps below this bound
        if p >= 2**31:
            raise ValueError(f"characteristic {p} is not below 2**31")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("GF is immutable")

    def __delattr__(self, name):
        raise AttributeError("GF is immutable")

    def __reduce__(self):
        return type(self), (self.p,)

    def __eq__(self, other):
        if type(other) is not GF:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p,))

    def __repr__(self):
        return f"GF(p={self.p})"

    def __str__(self):
        return f"GF({self.p})"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, x):
        # int first: the Fraction test goes through ABCMeta on every entry
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

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
            raise ZeroDivisionError("inverting zero")
        return pow(a, -1, self.p)


class _Rationals:
    """Exact rational coefficients; the sign-sensitive secondary mode.

    Same element protocol as GF, with Fraction arithmetic.
    """

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting zero")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, _Rationals)

    def __hash__(self):
        return hash("persax-rationals")

    def __str__(self):
        return "QQ"


QQ = _Rationals()
GF2 = GF(2)
GF3 = GF(3)
