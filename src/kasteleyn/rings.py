"""Exact scalar arithmetic: integer-coefficient Laurent polynomials in q,
rational-coefficient polynomials, and the factorization diagnostics used by
the conjecture harness.

Scalars are deliberately plain: integers are Python ints, rationals are
fractions.Fraction.  Everything here is immutable and safe to share.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class GuardExceeded(DomainError):
    """A configurable size guard refused the computation."""


class ExactDivisionError(ArithmeticError):
    """Division requested between elements that do not divide exactly."""


def _as_int(c):
    """c as a plain int: an int (a bool included) or a Fraction with
    denominator 1.  TypeError for anything else, a float above all, whose
    value is not exact."""
    if type(c) is int:
        return c
    if isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1):
        return int(c)
    raise TypeError(f"not an integer: {c!r}")


# ---------------------------------------------------------------------------
# Laurent polynomials over Z


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable q.

    Stored as a map exponent -> nonzero coefficient; equal polynomials have
    identical stored maps, so == and hash are structural.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(e, int):
                    raise TypeError("exponents must be int")
                if type(c) is not int:
                    c = _as_int(c)
                if c:
                    clean[e] = clean.get(e, 0) + c
                    if not clean[e]:
                        del clean[e]
        self._terms = clean
        self._hash = None

    # -- constructors

    @staticmethod
    def _from_terms(terms):
        """Wrap a map exponent -> nonzero int as is, without re-checking."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        out._hash = None
        return out

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def one():
        return LaurentPoly({0: 1})

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def q_power(e, coeff=1):
        return LaurentPoly({e: coeff})

    @staticmethod
    def coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, int):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")

    # -- observers

    def items(self):
        return sorted(self._terms.items())

    def is_zero(self):
        return not self._terms

    @property
    def min_exp(self):
        if not self._terms:
            raise DomainError("zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self):
        if not self._terms:
            raise DomainError("zero polynomial has no exponents")
        return max(self._terms)

    @property
    def span(self):
        return self.max_exp - self.min_exp

    def is_unit(self):
        """Units of Z[q, q^-1] are +-q^k."""
        return len(self._terms) == 1 and abs(next(iter(self._terms.values()))) == 1

    def is_one(self):
        return self._terms == {0: 1}

    def leading_coeff(self):
        return self._terms[self.max_exp]

    def trailing_coeff(self):
        return self._terms[self.min_exp]

    # -- arithmetic

    def __add__(self, other):
        other = LaurentPoly.coerce(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return LaurentPoly._from_terms(terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._from_terms({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-LaurentPoly.coerce(other))

    def __rsub__(self, other):
        return LaurentPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = LaurentPoly.coerce(other)
        if not self._terms or not other._terms:
            return LaurentPoly.zero()
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return LaurentPoly._from_terms(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative powers only for units; shift exponents instead")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k):
        """Multiply by q^k."""
        return LaurentPoly._from_terms({e + k: c for e, c in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- division

    def _dense(self):
        """(min_exp, coefficient list from min_exp upward)."""
        lo, hi = self.min_exp, self.max_exp
        coeffs = [0] * (hi - lo + 1)
        for e, c in self._terms.items():
            coeffs[e - lo] = c
        return lo, coeffs

    def divide(self, other):
        """Exact division in Z[q, q^-1]; raises ExactDivisionError if not exact."""
        q = self.try_divide(other)
        if q is None:
            raise ExactDivisionError(f"{other} does not divide {self}")
        return q

    def try_divide(self, other):
        """self / other by the long division `_divide_dense`, or None."""
        other = LaurentPoly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        lo_n, num = self._dense()
        lo_d, den = other._dense()
        quot = _divide_dense(num, den)
        if quot is None:
            return None
        return LaurentPoly._from_terms(
            {i + lo_n - lo_d: c for i, c in enumerate(quot) if c}
        )

    # -- normalization and evaluation

    def unit_normalize(self):
        """Return (sign, exp, f) with self = sign * q^exp * f, f having
        minimum exponent 0 and positive leading coefficient.  A monomial
        c q^e, every unit among them, is read off its one term."""
        t = self._terms
        if len(t) == 1:
            ((e, c),) = t.items()
            sign = 1 if c > 0 else -1
            return sign, e, LaurentPoly._from_terms({0: sign * c})
        if not t:
            return 1, 0, self
        k = self.min_exp
        sign = 1 if self.leading_coeff() > 0 else -1
        return sign, k, LaurentPoly._from_terms(
            {e - k: sign * c for e, c in self._terms.items()})

    def normal(self):
        return self.unit_normalize()[2]

    def evaluate(self, q0):
        """Exact evaluation; returns int when integral, Fraction otherwise."""
        if isinstance(q0, float):
            raise TypeError("exact evaluation only; pass int or Fraction")
        t = self._terms
        if isinstance(q0, int):
            lo = min(min(t, default=0), 0)
            if lo and not q0:
                raise DomainError("cannot evaluate negative exponents at q = 0")
            # q0^-lo * f(q0) is an integer; divide once at the end
            num = sum(c * q0 ** (e - lo) for e, c in t.items())
            den = q0 ** -lo
            quot, rem = divmod(num, den)
            return Fraction(num, den) if rem else quot
        q0 = Fraction(q0)
        if q0 == 0 and not self.is_zero() and self.min_exp < 0:
            raise DomainError("cannot evaluate negative exponents at q = 0")
        total = Fraction(0)
        for e, c in self._terms.items():
            total += c * q0 ** e
        return int(total) if total.denominator == 1 else total

    # -- text form

    def __str__(self):
        return format_laurent(self)

    def __repr__(self):
        return f"LaurentPoly({format_laurent(self, compact=True)!r})"


def _divide_dense(num, den):
    """Exact quotient of two coefficient lists (lowest term first, nonzero
    ends) by long division from the top, or None as soon as a step is
    inexact; num is not changed."""
    n = len(den)
    if len(num) < n:
        return None
    num = list(num)
    lead = den[-1]
    quot = [0] * (len(num) - n + 1)
    for i in range(len(num) - n, -1, -1):
        c = num[i + n - 1]
        if c == 0:
            continue
        if c % lead:
            return None
        f = c // lead
        quot[i] = f
        for j, d in enumerate(den):
            num[i + j] -= f * d
    if any(num):
        return None
    return quot


# ---------------------------------------------------------------------------
# Kronecker codec: a term map (exponent -> nonzero int) packed into one int,
# its value at q = 2^b, so int arithmetic on packed values runs the
# polynomial one; a value whose coefficients are at most `bound` in absolute
# value is read back exactly with b = `_kronecker_width(bound)`.


def _kronecker_width(bound):
    """Room for `bound` and a sign, and b >= 2 (with b = 1 the digits -1 and
    0 reach no positive value)."""
    return max(bound, 1).bit_length() + 1


def _kronecker_pack(terms, b, lo):
    """The value at q = 2^b of `terms` / q^lo, lo at most every exponent."""
    # a loop: a generator under sum() costs more on maps of one to three terms
    v = 0
    for e, c in terms.items():
        v += c << b * (e - lo)
    return v


def _kronecker_unpack(value, b, e):
    """The term map of q^e times `value` read as signed base-2^b digits,
    lowest first, each in [-2^(b-1), 2^(b-1))."""
    full = 1 << b
    half = full >> 1
    mask = full - 1
    terms = {}
    while value:
        d = value & mask
        value >>= b
        if d >= half:
            d -= full
            value += 1
        if d:
            terms[e] = d
        e += 1
    return terms


# ---------------------------------------------------------------------------
# Text form, one codec for Z[q, q^-1] and Q[q]: signed terms `c`, `c*q^e` and
# `q^e` in ascending exponent, with c an integer n or a fraction n/d.

# CPython 3.10.7+ refuses int <-> str conversions past a digit limit (4300
# by default, 640 at the least; `sys.set_int_max_str_digits`).  Number text
# stays exact at any size, without touching that process-wide setting, by
# converting in pieces of at most this many digits.
_DIGITS = 600


def _decimal_text(a):
    """str(a) for an int a of any size: split at a power of ten near half
    its digits, each half converted the same way.  str() itself only sees
    ints of at most 3 * _DIGITS bits, which have at most 542 digits."""
    if a < 0:
        return "-" + _decimal_text(-a)
    if a.bit_length() <= 3 * _DIGITS:
        return str(a)
    half = a.bit_length() * 3 // 20       # about half of log10(a)
    hi, lo = divmod(a, 10 ** half)
    return _decimal_text(hi) + _decimal_text(lo).zfill(half)


def _decimal_value(digits):
    """int(digits) for a string of ASCII digits of any length."""
    if len(digits) <= _DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _decimal_value(digits[:-half]) * 10 ** half + _decimal_value(digits[-half:])


def _format_terms(pairs, compact=False):
    """Text of ascending (exponent, nonzero int or Fraction) pairs:
    `1/2 - 3*q^2`, or `1/2-3*q^2` when compact."""
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    out = []
    for e, c in pairs:
        try:
            c = str(c)
        except ValueError:      # past the interpreter's int -> str digit limit
            c = (_decimal_text(c) if type(c) is int else
                 f"{_decimal_text(c.numerator)}/{_decimal_text(c.denominator)}")
        if c[0] == "-":
            c = c[1:]
            out.append(minus if out else "-")
        elif out:
            out.append(plus)
        if e == 0:
            out.append(c)
        else:
            qpart = "q" if e == 1 else f"q^{_decimal_text(e)}"
            out.append(qpart if c == "1" else f"{c}*{qpart}")
    return "".join(out) or "0"


# the largest exponent `RationalPoly.parse` accepts; the suites and the
# benchmark build Q[q] entries of degree at most 70
_QPOLY_TEXT_DEGREE = 100_000

# a term ends before a sign whose nearest non-space left neighbour is a digit
# or q; `q^-1` stays whole, and so do `1*-q` and `--q`, which then fail below
_TERM_BREAK = re.compile(r"(?<=[\dq])\s*(?=[-+])", re.ASCII)
_SIGNED_TERM = re.compile(
    r"""\s*(?P<sign>[-+]?)\s*
        (?:(?P<num>\d+)(?:/(?P<den>0*[1-9]\d*))?   # a coefficient, then
           (?:\s*\*\s*(?=q)|\s*\Z))?                # `*` and q, or the end
        (?P<q>q(?:\^(?P<exp>-?\d+))?)?\s*""",
    re.VERBOSE | re.ASCII,
)


def _parse_terms(text):
    """Exponent -> coefficient of the text form; a coefficient is an int, or
    a Fraction where it is written n/d (d nonzero).  DomainError on a
    malformed term."""
    terms = {}
    for term in _TERM_BREAK.split(text):
        m = _SIGNED_TERM.fullmatch(term)
        if m is None or not (m["num"] or m["q"]):
            raise DomainError(f"bad polynomial term {term!r} in {text!r}")
        c = _decimal_value(m["num"] or "1")
        if m["den"]:
            c = Fraction(c, _decimal_value(m["den"]))
        if m["sign"] == "-":
            c = -c
        exp = (m["exp"] or "1") if m["q"] else "0"
        e = -_decimal_value(exp[1:]) if exp[0] == "-" else _decimal_value(exp)
        terms[e] = terms.get(e, 0) + c
    return terms


def format_laurent(f, compact=False):
    """Canonical text form: ascending exponents, terms like c*q^e."""
    return _format_terms(f.items(), compact)


def parse_laurent(text):
    """Parse the Laurent text form (`1 - 2*q + q^3`, `q^-1+1`, ...): integer
    coefficients, exponents of either sign."""
    terms = _parse_terms(text)
    if any(type(c) is not int for c in terms.values()):
        raise DomainError(f"non-integer coefficient in Laurent text {text!r}")
    return LaurentPoly(terms)


# ---------------------------------------------------------------------------
# q-integers, Gaussian binomials, cyclotomics


def q_integer(n):
    """(n)_q = 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise DomainError(f"q_integer needs n >= 1, got {n}")
    return LaurentPoly({e: 1 for e in range(n)})


@lru_cache(maxsize=None)
def gaussian_binomial(n, k):
    """q-binomial coefficient, computed by exact division of q-integer
    products; memoized, as the Jacobi-Trudi entries ask for the same few
    values many times (a LaurentPoly is never changed in place)."""
    if n < 0 or k < 0:
        raise DomainError("gaussian_binomial needs nonnegative arguments")
    if k > n:
        return LaurentPoly.zero()
    k = min(k, n - k)
    num = LaurentPoly.one()
    den = LaurentPoly.one()
    for i in range(1, k + 1):
        num = num * q_integer(n - k + i)
        den = den * q_integer(i)
    return num.divide(den)


@lru_cache(maxsize=None)
def cyclotomic(d):
    """The d-th cyclotomic polynomial, by exact division of q^d - 1."""
    if d < 1:
        raise DomainError("cyclotomic index must be >= 1")
    f = LaurentPoly({d: 1, 0: -1})
    for e in range(1, d):
        if d % e == 0:
            f = f.divide(cyclotomic(e))
    return f


def _euler_phi(d):
    out, n, p = 1, d, 2
    while p * p <= n:
        if n % p == 0:
            out *= p - 1
            n //= p
            while n % p == 0:
                out *= p
                n //= p
        p += 1
    if n > 1:
        out *= n - 1
    return out


class QRoundFactorization:
    """Outcome of the q-roundness diagnostic.

    When success is true: input = sign * q^exp * product(factors), with each
    factor tagged ('q-integer', n) or ('cyclotomic', d).  On failure the
    residual carries the part that resisted cyclotomic-type division.
    """

    def __init__(self, sign, exp, factors, residual):
        self.sign = sign
        self.exp = exp
        self.factors = tuple(factors)
        self.residual = residual

    @property
    def success(self):
        return self.residual.is_one()

    def factor_names(self):
        return tuple(f"({n})_q" if tag == "q-integer" else f"Phi_{n}"
                     for tag, n in self.factors)

    def is_squarefree(self):
        """Square-free over Q[q], up to units and powers of q: no Phi_d twice,
        with (n)_q counted as Phi_d for every d | n, d > 1, and a square-free
        residual.  `factor_q_round` tries every Phi_d of degree up to the
        span, so the residual has no cyclotomic factor and needs the gcd
        with its derivative only when it is not constant."""
        seen = set()
        for tag, n in self.factors:
            for d in (range(2, n + 1) if tag == "q-integer" else (n,)):
                if n % d == 0:
                    if d in seen:
                        return False
                    seen.add(d)
        return self.residual.span == 0 or RationalPoly.from_laurent(self.residual).is_squarefree()

    def __repr__(self):
        state = "round" if self.success else f"residual={self.residual}"
        return f"<QRoundFactorization {self.factor_names()} {state}>"


def factor_q_round(f):
    """Greedy factorization into q-integers then cyclotomics, per the
    reported diagnostic convention: (n)_q with n descending first, then
    Phi_d with d descending; success iff the residual is 1."""
    f = LaurentPoly.coerce(f)
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    sign, exp, g = f.unit_normalize()
    factors = []
    n = g.span + 1
    while n >= 2:
        if g.span + 1 < n:
            n = g.span + 1
            continue
        quot = g.try_divide(q_integer(n))
        if quot is not None:
            factors.append(("q-integer", n))
            g = quot
        else:
            n -= 1
    if not g.is_one():
        span = g.span
        dmax = 2 * span * span + 2
        for d in range(dmax, 0, -1):
            if _euler_phi(d) > g.span:
                continue
            while True:
                quot = g.try_divide(cyclotomic(d))
                if quot is None:
                    break
                factors.append(("cyclotomic", d))
                g = quot
            if g.span == 0:
                break
    return QRoundFactorization(sign, exp, factors, g)


# ---------------------------------------------------------------------------
# Smoothness diagnostics over Z


class SmoothFactorization:
    def __init__(self, sign, primes, residual, bound):
        self.sign = sign
        self.primes = tuple(primes)
        self.residual = residual
        self.bound = bound

    @property
    def success(self):
        return self.residual == 1

    def is_squarefree(self):
        """No prime repeats: none up to the bound twice, and a square-free
        residual, whose primes are all above the bound."""
        return len(set(self.primes)) == len(self.primes) and integer_squarefree(self.residual)

    def __repr__(self):
        state = "smooth" if self.success else f"residual={self.residual}"
        return f"<SmoothFactorization {list(self.primes)} {state} bound={self.bound}>"


def _primes_upto(bound):
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(bound ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(2, bound + 1) if sieve[p]]


def smooth_factor(n, bound):
    """Trial division by all primes <= bound; the residual is what remains."""
    if n == 0:
        raise DomainError("cannot factor zero")
    if bound < 1:
        raise DomainError("bound must be positive")
    sign = 1 if n > 0 else -1
    n = abs(n)
    primes = []
    for p in _primes_upto(bound):
        while n % p == 0:
            primes.append(p)
            n //= p
    return SmoothFactorization(sign, primes, n, bound)


# ---------------------------------------------------------------------------
# Dense polynomials over Q (the Euclidean-domain fallback for q-matrices)


def _exact_quotient(a, b):
    """a / b for int or Fraction a, b: an int when exact, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    f = a / b   # one of them is a Fraction, so this is exact
    return f.numerator if f.denominator == 1 else f


def _as_rational(c):
    """Fraction(c); TypeError for a float, whose value is not exact."""
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    return Fraction(c)


def _integral(cs):
    """cs with every integral Fraction replaced by its int."""
    return [c if type(c) is int or c.denominator != 1 else c.numerator for c in cs]


class RationalPoly:
    """Polynomial in q with rational coefficients, dense ascending storage.

    An integral coefficient is stored as an int and any other as a Fraction
    (denominator > 1), so the common integral case runs on plain ints.
    Fraction(n) == n and hash(Fraction(n)) == hash(n), so == and hash are
    structural either way."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) in (int, Fraction) else _as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(_integral(cs))

    @staticmethod
    def _trimmed(cs):
        """The polynomial of the list cs, already in stored form (ints and
        non-integral Fractions); trailing zeros are dropped, in place."""
        while cs and not cs[-1]:
            cs.pop()
        out = RationalPoly.__new__(RationalPoly)
        out.coeffs = tuple(cs)
        return out

    @staticmethod
    def zero():
        return RationalPoly()

    @staticmethod
    def one():
        return RationalPoly((1,))

    @staticmethod
    def const(c):
        return RationalPoly((c,))

    @staticmethod
    def coerce(x):
        if isinstance(x, RationalPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalPoly.const(x)
        if isinstance(x, LaurentPoly):
            return RationalPoly.from_laurent(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to RationalPoly")

    @staticmethod
    def from_laurent(f):
        if f.is_zero():
            return RationalPoly._trimmed([])
        if f.min_exp < 0:
            raise DomainError("negative exponents do not embed in Q[q]")
        coeffs = [0] * (f.max_exp + 1)
        for e, c in f._terms.items():
            coeffs[e] = c
        return RationalPoly._trimmed(coeffs)

    def to_laurent(self):
        """Exact conversion when all coefficients are integers."""
        terms = {}
        for e, c in enumerate(self.coeffs):
            if c:
                if c.denominator != 1:
                    raise DomainError("non-integer coefficient")
                terms[e] = int(c)
        return LaurentPoly(terms)

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        if not self.coeffs:
            return -1
        return len(self.coeffs) - 1

    def leading_coeff(self):
        if not self.coeffs:
            raise DomainError("zero polynomial")
        return self.coeffs[-1]

    def is_unit(self):
        return len(self.coeffs) == 1

    def is_one(self):
        return self.coeffs == (1,)

    def __eq__(self, other):
        if not isinstance(other, RationalPoly):
            try:
                other = RationalPoly.coerce(other)
            except TypeError:
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, RationalPoly.coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly._trimmed(_integral(out))

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly._trimmed([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-RationalPoly.coerce(other))

    def __rsub__(self, other):
        return RationalPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = RationalPoly.coerce(other)
        if not self.coeffs or not other.coeffs:
            return RationalPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs, i):
                out[j] += a * b
        return RationalPoly._trimmed(_integral(out))

    __rmul__ = __mul__

    def divmod(self, other):
        other = RationalPoly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        den = other.coeffs
        rem = list(self.coeffs)
        dn = len(den)
        if len(rem) < dn:
            return RationalPoly(), self
        quot = [0] * (len(rem) - dn + 1)
        lead = den[-1]
        for i in range(len(rem) - dn, -1, -1):
            c = rem[i + dn - 1]
            if not c:
                continue
            f = _exact_quotient(c, lead)
            quot[i] = f
            for j, d in enumerate(den, i):
                rem[j] -= f * d
        return RationalPoly._trimmed(quot), RationalPoly._trimmed(_integral(rem))

    def divide(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ExactDivisionError(f"{other} does not divide {self}")
        return q

    def try_divide(self, other):
        q, r = self.divmod(RationalPoly.coerce(other))
        return q if r.is_zero() else None

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return RationalPoly._trimmed([_exact_quotient(c, lead) for c in self.coeffs])

    def derivative(self):
        return RationalPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other):
        a, b = self, RationalPoly.coerce(other)
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def gcdext(self, other):
        """Extended Euclid: (g, x, y) with x*self + y*other = g, g monic."""
        other = RationalPoly.coerce(other)
        r0, r1 = self, other
        x0, x1 = RationalPoly.one(), RationalPoly.zero()
        y0, y1 = RationalPoly.zero(), RationalPoly.one()
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        if r0.is_zero():
            return r0, x0, y0
        lead = r0.coeffs[-1]
        inv = RationalPoly.const(_exact_quotient(1, lead))
        return r0.monic(), inv * x0, inv * y0

    def primitive_integer_form(self):
        """Scale by a positive rational to primitive integer coefficients with
        positive leading coefficient; returns the scaled RationalPoly."""
        if self.is_zero():
            return self
        denom = 1
        for c in self.coeffs:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        nums = [int(c * denom) for c in self.coeffs]
        g = 0
        for c in nums:
            g = gcd(g, abs(c))
        nums = [c // g for c in nums]
        if nums[-1] < 0:
            nums = [-c for c in nums]
        return RationalPoly(nums)

    def is_squarefree(self):
        if self.is_zero():
            return False
        if self.degree() == 0:
            return True
        return self.gcd(self.derivative()).degree() == 0

    @staticmethod
    def parse(text):
        """Parse the text form with n/d coefficients allowed and negative
        exponents refused (`1/2-3*q^2`, `-3/4*q`, ...).  The coefficients
        are stored dense, so an exponent above `_QPOLY_TEXT_DEGREE` raises
        GuardExceeded rather than allocate that many."""
        terms = _parse_terms(text)
        if min(terms) < 0:
            raise DomainError(f"negative exponents are not in Q[q]: {text!r}")
        if max(terms) > _QPOLY_TEXT_DEGREE:
            raise GuardExceeded(f"exponent {_decimal_text(max(terms))} in Q[q] text "
                                f"is above the limit {_QPOLY_TEXT_DEGREE}")
        return RationalPoly([terms.get(e, 0) for e in range(max(terms) + 1)])

    def to_str(self, compact=False):
        """Text form, `1/2 - 3*q^2`; `1/2-3*q^2` when compact."""
        return _format_terms([(e, c) for e, c in enumerate(self.coeffs) if c], compact)

    __str__ = to_str

    def __repr__(self):
        return f"RationalPoly({self})"


def integer_squarefree(n):
    """True if |n| has no repeated prime factor; exhaustive small-factor
    search (trial division to sqrt), adequate at desk scale."""
    n = abs(n)
    if n == 0:
        return False
    if n == 1:
        return True
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        else:
            p += 1
    return True
