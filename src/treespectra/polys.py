"""Exact univariate integer polynomials and real-root machinery.

Everything here is certificate-grade: coefficients are arbitrary-precision
integers, interval endpoints are rationals, and no floating point is used
anywhere.  Root counting goes through Sturm chains on square-free parts;
multiplicities are recovered by exact division.  One remainder sequence
serves gcds and Sturm chains; one Sturm evaluation serves every point,
+infinity included.  IntPoly's sums and products run on the
coefficient-list kernels _add and _mul.  The matching-number fold in
spectra runs on packed ints instead (Kronecker substitution): a polynomial
with coefficients in [0, 2^w) is its value at x = 2^w, _slot_width gives
the w that holds every matching count of a forest, and _unpack reads the
coefficients back.  lift_square is the one x^2 lift.
The module knows integer polynomials and their real roots; the format of
a tree's integer spectrum, SpectrumSummary, belongs to spectra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, floor, gcd
from operator import index
from typing import Iterable, NamedTuple, Optional, Sequence


class DivisibilityError(ArithmeticError):
    """Exact division was requested but the divisor does not divide."""


class SymmetryError(ValueError):
    """Polynomial is not of the form x^h * q(x^2)."""


class PrecisionExhausted(RuntimeError):
    """Interval refinement hit its width cap without resolving a comparison."""


def _strip(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def _mul(f: Sequence[int], g: Sequence[int]) -> list:
    """Product of two ascending coefficient lists."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def _add(f: Sequence[int], g: Sequence[int]) -> list:
    """Sum of two ascending coefficient lists."""
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, gi in enumerate(g):
        out[i] += gi
    return out


def _slot_width(n: int) -> int:
    """F(n+1).bit_length(), F(k) the Fibonacci numbers: slots of this many
    bits hold every matching count of a forest on at most n vertices (the
    bound is argued at spectra._matching_numbers)."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return b.bit_length()


def _unpack(packed: int, width: int) -> list:
    """Ascending coefficients of the polynomial f with coefficients in
    [0, 2^width) and f(2^width) = packed: one slot of width bits each,
    lowest first, with no trailing zero."""
    mask = (1 << width) - 1
    out = []
    while packed:
        out.append(packed & mask)
        packed >>= width
    return out


class IntPoly:
    """Dense univariate polynomial over the integers, ascending coefficients.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        # operator.index refuses a Fraction or a float instead of truncating
        cs = tuple(map(index, coeffs))
        object.__setattr__(self, "coeffs", _strip(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "IntPoly":
        return cls((0,) * k + (c,))

    @classmethod
    def from_text(cls, text: str) -> "IntPoly":
        """Parse the comma-separated ascending-coefficient form that to_text
        writes: "" is the zero polynomial, and no other field may be empty."""
        return cls(map(int, text.split(",")) if text else ())

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            a = abs(c)
            if i == 0:
                body = str(a)
            elif i == 1:
                body = "x" if a == 1 else f"{a}x"
            else:
                body = f"x^{i}" if a == 1 else f"{a}x^{i}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def to_text(self) -> str:
        """Comma-separated ascending coefficients, e.g. "-1,0,1" for x^2-1."""
        return ",".join(str(c) for c in self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + -other

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative power")
        result = IntPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def evaluate(self, t):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def exact_divide(self, divisor: "IntPoly") -> "IntPoly":
        """Quotient self/divisor when the division is exact over the integers.

        Raises DivisibilityError when any coefficient step fails or a nonzero
        remainder is left.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return IntPoly.zero()
        da, db = self.degree, divisor.degree
        if da < db:
            raise DivisibilityError(f"{divisor} does not divide {self}")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        quot = [0] * (da - db + 1)
        for i in range(da - db, -1, -1):
            top = rem[i + db]
            if top == 0:
                continue
            q, r = divmod(top, lead)
            if r != 0:
                raise DivisibilityError(f"{divisor} does not divide {self}")
            quot[i] = q
            for j, c in enumerate(divisor.coeffs):
                rem[i + j] -= q * c
        if any(rem):
            raise DivisibilityError(f"{divisor} does not divide {self}")
        return IntPoly(quot)

    def content(self) -> int:
        """GCD of the coefficients (0 for the zero polynomial)."""
        return gcd(*self.coeffs)

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        g = self.content()
        if g == 0:
            return IntPoly.zero()
        if self.coeffs[-1] < 0:
            g = -g
        return IntPoly(tuple(c // g for c in self.coeffs))


# ---------------------------------------------------------------------------
# gcd / square-free machinery


def _pseudo_rem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Pseudo-remainder r with lc(b)^(da-db+1) * a = q*b + r."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    rem = list(a)
    for i in range(da - db, -1, -1):
        top = rem[i + db]
        for j in range(len(rem)):
            rem[j] *= lead
        if top:
            for j, c in enumerate(b):
                rem[i + j] -= top * c
        # rem now has degree < i+db in positions above; keep going
    return _strip(tuple(rem))


def _remainders(a: tuple[int, ...], b: tuple[int, ...]) -> list:
    """Signed remainders a, b, -rem(a, b), ... (len(a) >= len(b)),
    content-reduced: the last is gcd(a, b) up to a constant, and for
    b = a' with a square-free the sequence is a's Sturm chain."""
    seq = [a, b]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        r = _pseudo_rem(a, b)
        if not r:
            break
        # the sequence takes minus the remainder, and r is lc(b)^(len(a) -
        # len(b) + 1) times it: negate r unless that scale is negative
        g = gcd(*r)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            g = -g
        seq.append(tuple(c // g for c in r))
    return seq


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    a, b = p.primitive(), q.primitive()
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.degree < b.degree:
        a, b = b, a
    return IntPoly(_remainders(a.coeffs, b.coeffs)[-1]).primitive()


def square_free_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Musser decomposition: [(f_i, i)] with primitive(p) = prod f_i^i.

    The f_i are primitive, square-free, and pairwise coprime.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    a = p.primitive()
    if a.degree <= 0:
        return []
    b = poly_gcd(a, a.derivative())
    c = a.exact_divide(b)
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while c.degree > 0:
        d = poly_gcd(b, c)
        fi = c.exact_divide(d)
        if fi.degree > 0:
            out.append((fi, i))
        b = b.exact_divide(d)
        c = d
        i += 1
    return out


# ---------------------------------------------------------------------------
# Sturm chains and root counting


def _eval_scaled(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """den^deg * p(num/den), exact; sign equals sign of p(num/den)."""
    acc = coeffs[-1]
    dp = 1
    for c in reversed(coeffs[:-1]):
        dp *= den
        acc = acc * num + c * dp
    return acc


def _as_fraction(t) -> Fraction:
    """An exact point or width: a Fraction, or an int through
    operator.index, which raises TypeError for a float or a string."""
    return t if isinstance(t, Fraction) else Fraction(index(t))


class RootCount(NamedTuple):
    with_multiplicity: int
    distinct: int


@lru_cache(maxsize=4096)
def _sturm_factors(p: IntPoly) -> tuple[tuple[int, tuple], ...]:
    """(multiplicity, Sturm chain) of each square-free factor of p."""
    return tuple((mult, tuple(_remainders(f.coeffs, f.derivative().coeffs)))
                 for f, mult in square_free_decomposition(p))


def _sturm_point(p: IntPoly, t) -> tuple[tuple[int, int, bool], ...]:
    """One Sturm evaluation of p at the rational t, in integers only: for
    each square-free factor of p, its multiplicity, the sign variations of
    its chain at t and whether the factor vanishes at t.  t None is
    +infinity, where each chain member has its leading coefficient's sign.

    For a square-free f, V(lo) - V(hi) counts its distinct roots in
    (lo, hi], zeros in the chain being skipped."""
    out = []
    for mult, chain in _sturm_factors(p):
        values = [c[-1] if t is None else
                  _eval_scaled(c, t.numerator, t.denominator) for c in chain]
        signs = [v > 0 for v in values if v]
        out.append((mult, sum(a != b for a, b in zip(signs, signs[1:])),
                    not values[0]))
    return tuple(out)


def _count_between(at_lo, at_hi) -> RootCount:
    """Roots in the open interval between two _sturm_point evaluations of
    one polynomial: V(lo) - V(hi) per factor, less one if hi is its root."""
    with_mult = distinct = 0
    for (mult, v_lo, _), (_, v_hi, zero_hi) in zip(at_lo, at_hi):
        d = v_lo - v_hi - zero_hi
        distinct += d
        with_mult += mult * d
    return RootCount(with_mult, distinct)


def _multiplicity_at(at_t) -> int:
    """Multiplicity of t as a root, from a _sturm_point evaluation at t."""
    return sum(mult for mult, _, zero in at_t if zero)


def count_roots_open(p: IntPoly, lo, hi) -> RootCount:
    """Exact number of real roots of p in the open interval (lo, hi).

    Returns both the multiplicity-weighted count and the distinct count.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no root count")
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    return _count_between(_sturm_point(p, lo), _sturm_point(p, hi))


def count_roots_above(p: IntPoly, t) -> RootCount:
    """Real roots of p strictly above t: V(t) - V(+infinity) per factor."""
    return _count_between(_sturm_point(p, _as_fraction(t)),
                          _sturm_point(p, None))


def _deflate(coeffs: list, t) -> tuple[int, list]:
    """Divide (x - t) out of ascending coefficients as often as it goes, by
    Horner synthetic division; returns (times divided, quotient).  An int t
    keeps the arithmetic in the integers."""
    mult = 0
    while len(coeffs) > 1:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * t + c
        if acc != 0:
            break
        quot = []
        acc = 0
        for c in reversed(coeffs[1:]):
            acc = acc * t + c
            quot.append(acc)
        quot.reverse()
        coeffs = quot
        mult += 1
    return mult, coeffs


def root_bound(p: IntPoly) -> int:
    """Cauchy bound: every real root has absolute value strictly below it."""
    if p.degree < 1:
        return 1
    lead = abs(p.coeffs[-1])
    biggest = max(abs(c) for c in p.coeffs[:-1])
    return 1 + (biggest + lead - 1) // lead


# ---------------------------------------------------------------------------
# even part, x^2 lift and Taylor shift


def even_part(p: IntPoly) -> tuple[int, IntPoly]:
    """Write p(x) = x^h * q(x^2); return (h, q).

    Raises SymmetryError when p has no such form, which signals that the
    input was not the characteristic polynomial of a bipartite graph.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    h = 0
    while p.coeffs[h] == 0:
        h += 1
    rest = p.coeffs[h:]
    if any(rest[i] for i in range(1, len(rest), 2)):
        raise SymmetryError("polynomial is not x^h * q(x^2)")
    return h, IntPoly(rest[0::2])


def lift_square(q: Sequence[int]) -> IntPoly:
    """q(x^2), from the ascending coefficients of q: even_part in reverse."""
    out = [0] * (2 * len(q) - 1)
    out[::2] = q
    return IntPoly(out)


def taylor_shift(q: IntPoly, r: int) -> IntPoly:
    """Exact Taylor shift: the polynomial q(y - r)."""
    out = IntPoly.zero()
    lin = IntPoly((-r, 1))
    for c in reversed(q.coeffs):
        out = out * lin + IntPoly.const(c)
    return out


# ---------------------------------------------------------------------------
# the k-th largest real root as one exact comparison object

# The one precision cap: no comparison refines an isolating interval below
# this width; an unresolved one raises PrecisionExhausted.
WIDTH_CAP = Fraction(1, 2 ** 64)
# Comparisons refine through the widths 1/4, 1/16, 1/64, ... down to the cap.
_FIRST_WIDTH = Fraction(1, 4)


def count_roots_at_least(p: IntPoly, t) -> int:
    """Real roots of p at or above t, counted with multiplicity."""
    at_t = _sturm_point(p, _as_fraction(t))
    return (_count_between(at_t, _sturm_point(p, None)).with_multiplicity
            + _multiplicity_at(at_t))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class RealRoot:
    """The k-th largest real root of p, counted with multiplicity (k = 1 is
    the largest), with exact comparisons.

    The root owns an isolating open interval (lo, hi) and refines it in
    place.  Bisection always starts from (-root_bound, root_bound) and takes
    the same path, so refining to w and then to w/4 gives the interval a
    fresh isolation at w/4 gives.  A rational root is held in ``exact``.
    Monic input is bisected to width 1 at construction; its rational roots
    are integers, so the one integer that interval can hold is the only
    candidate.  Any other rational root is found when a bisection midpoint
    hits it.

    While it bisects, the root keeps its Sturm evaluations at lo and hi, so
    a step evaluates only at its midpoint; +infinity is read at root_bound.
    """

    def __init__(self, p: IntPoly, k: int):
        if p.is_zero:
            raise ValueError("zero polynomial")
        if k < 1:
            raise ValueError("root index starts at 1")
        bound = root_bound(p)
        self.poly, self.index = p, k
        self.lo, self.hi = Fraction(-bound), Fraction(bound)
        self._at_lo = _sturm_point(p, self.lo)
        self._at_hi = _sturm_point(p, self.hi)
        self._at_inf = self._at_hi
        rc = _count_between(self._at_lo, self._at_hi)
        if k > rc.with_multiplicity:
            raise ValueError(f"polynomial has only {rc.with_multiplicity} "
                             f"real roots, asked for #{k}")
        self._isolated = rc.distinct == 1
        self.exact: Optional[Fraction] = None
        if p.is_monic:
            self.refine(1)
            c = floor(self.lo) + 1
            if self.exact is None and c < self.hi and not _eval_scaled(
                    p.coeffs, c, 1):
                self.exact = Fraction(c)

    @property
    def bounds(self) -> tuple[Fraction, Fraction]:
        """Closed enclosure: (exact, exact) for a rational root, otherwise
        the endpoints of the open isolating interval."""
        if self.exact is not None:
            return self.exact, self.exact
        return self.lo, self.hi

    def refine(self, width) -> "RealRoot":
        """Continue the bisection until the interval isolates the root and
        is at most ``width`` wide.  A rational root gets the pinch interval
        (exact - eps, exact + eps), eps the first of width/2, width/4, ...
        that isolates it."""
        width = _as_fraction(width)
        if width <= 0:
            raise ValueError("refinement width must be positive")
        p = self.poly
        while self.exact is None and not (self._isolated
                                          and self.hi - self.lo <= width):
            mid = (self.lo + self.hi) / 2
            at_mid = _sturm_point(p, mid)
            sign = self._sign_at(at_mid)
            if sign == 0:
                self.exact = mid
                break
            if sign > 0:
                self.lo, self._at_lo = mid, at_mid
            else:
                self.hi, self._at_hi = mid, at_mid
            self._isolated = _count_between(self._at_lo,
                                            self._at_hi).distinct == 1
        if self.exact is not None:
            eps = width / 2
            while count_roots_open(p, self.exact - eps,
                                   self.exact + eps).distinct != 1:
                eps /= 2
            self.lo, self.hi = self.exact - eps, self.exact + eps
        return self

    def compare(self, other) -> int:
        """Sign of (this root - other), decided exactly.

        ``other`` is a rational or another RealRoot.  A rational is decided
        by root counting, never by refinement; a RealRoot by compare_sum
        with one term, which certifies a tie as a root of gcd(p, q).
        """
        if isinstance(other, RealRoot):
            return compare_sum(self, other)
        t = _as_fraction(other)
        if self.exact is not None:
            return _sign(self.exact - t)
        return self._sign_at(_sturm_point(self.poly, t))

    def _sign_at(self, at_t) -> int:
        """Sign of (this root - t), given the _sturm_point evaluation at t:
        positive when at least k roots lie above t, zero when t closes the
        count to k."""
        above = _count_between(at_t, self._at_inf).with_multiplicity
        if above >= self.index:
            return 1
        return 0 if above + _multiplicity_at(at_t) >= self.index else -1


def _power_sums(f: IntPoly, count: int) -> list[int]:
    """Power sums s_0 .. s_count of the roots of a monic f, by Newton's
    identities s_k = -(a_1 s_(k-1) + ... + a_(k-1) s_1) - k a_k, with
    a_i the coefficient of x^(d-i) and a_i = 0 for i > d."""
    d = f.degree
    a = f.coeffs[::-1]
    s = [d]
    for k in range(1, count + 1):
        acc = sum(a[i] * s[k - i] for i in range(1, min(k - 1, d) + 1))
        s.append(-acc - (k * a[k] if k <= d else 0))
    return s


def _sum_poly(f: IntPoly, g: IntPoly) -> IntPoly:
    """The monic integer polynomial whose roots are the sums a + b over the
    roots a of f and b of g (both monic), with multiplicity.

    Its power sums are S_k = sum_j C(k, j) s_j(f) s_(k-j)(g); Newton's
    identities turn them back into coefficients, each an exact integer
    division by k."""
    n = f.degree * g.degree
    sf, sg = _power_sums(f, n), _power_sums(g, n)
    big_s = [sum(comb(k, j) * sf[j] * sg[k - j] for j in range(k + 1))
             for k in range(n + 1)]
    b = [1]
    for k in range(1, n + 1):
        b.append(-sum(b[i] * big_s[k - i] for i in range(k)) // k)
    return IntPoly(b[::-1])


def compare_sum(root: RealRoot, *terms: RealRoot) -> int:
    """Sign of root - (the sum of one or two terms), refining every root in
    lockstep through 1/4, 1/16, ... to the first width that decides it, so
    each is left at that width.

    Once every root but one is rational, one root count at the rational
    the others leave decides.  Otherwise the loop separates root's enclosure
    from the sum of the terms' enclosures, or certifies a tie on the open
    intervals (a rational root's pinch included): r has the sum as its only
    distinct root in the sum interval, and gcd(root.poly, r) has a root in
    both intervals, which can then only be root and the sum at once.  For
    one term r is its own polynomial, whose isolating interval makes it so
    with no count; for two monic terms r = _sum_poly of theirs, and its one
    root in the sum interval is counted.  An unresolved comparison (a
    non-tie still unseparated at the cap, or a tie of two terms not both
    monic) raises PrecisionExhausted.
    """
    if len(terms) not in (1, 2):
        raise ValueError("compare_sum takes one or two terms")
    roots = (root, *terms)
    one = len(terms) == 1
    certify = one or all(x.poly.is_monic for x in terms)
    common: Optional[IntPoly] = None
    width = _FIRST_WIDTH
    while width >= WIDTH_CAP:
        for x in roots:
            x.refine(width)
        exact = [x.exact for x in roots]
        if exact.count(None) <= 1:
            i = exact.index(None) if None in exact else 0
            t = sum(e for e in exact[1:] if e is not None)
            return root.compare(t) if i == 0 else -roots[i].compare(
                exact[0] - t)
        lo, hi = root.bounds
        if lo >= sum(x.bounds[1] for x in terms):
            return 1
        if hi <= sum(x.bounds[0] for x in terms):
            return -1
        if certify:
            if common is None:
                r = terms[0].poly if one else _sum_poly(terms[0].poly,
                                                        terms[1].poly)
                common = poly_gcd(root.poly, r)
            sum_lo, sum_hi = sum(x.lo for x in terms), sum(x.hi for x in terms)
            both_lo, both_hi = max(root.lo, sum_lo), min(root.hi, sum_hi)
            if (common.degree >= 1 and both_lo < both_hi
                    and count_roots_open(common, both_lo, both_hi).distinct
                    and (one or count_roots_open(r, sum_lo,
                                                 sum_hi).distinct == 1)):
                return 0
        width /= 4
    raise PrecisionExhausted(f"comparison unresolved at width {WIDTH_CAP}")
