"""Dense exact matrices and their normal forms.

Rings are tagged: "z" (integers), "laurent" (Z[q, q^-1]), "qpoly" (Q[q]).
One Smith elimination driver, `_smith`, serves all three, and one entry
step, `_reduce_entry`, serves every elimination: over the two PIDs ("z",
"qpoly") an exact multiple of the pivot is subtracted, else a determinant-1
Bezout mix puts the gcd at the pivot, so the Smith normal form is computed
constructively; over the Laurent ring, which is not a PID, the centered
reduction makes it a heuristic that either succeeds, exhibits a blocking
pair, or gives up at an iteration limit.  The one unit rule is the
adapter's `unit_and_normal(a)`: the unit u that normalizes a, and u * a.

The driver works on one sparse copy of the matrix (`_Workspace`): rows,
L and R (by columns) are maps from index to nonzero entry.  A lozenge
Kasteleyn matrix has about three nonzeros per row, so nearly every pivot
is a unit and costs its nonzeros rather than a pass over dense rows; dense
lists are built only for the transforms handed back.  Over "z" the
elimination changes route at the first block without a unit entry: if that
block is square with D = |det| != 0, it is finished modulo D
(`_finish_modulo_det`), with every entry at most D/2 in absolute value,
where plain elimination lets the entries grow without bound.  This holds
for the diagonal alone (`cokernel_of`, `stable_invariants`) and for a form
with transforms (`smith_normal_form`, `smith_report`): the row steps of the
finish are applied exactly to a small row transform U, and the column
transform is solved once from U and the block, so the witness is bounded
by the route rather than by the elimination order.  A singular or
non-square block goes on by plain elimination.  The route is read off the
input; there is no option for it.

The alternating (congruence) normal form and the Pfaffian share one more
driver on the same workspace, `_alternating_blocks`: each step is a
column operation followed by the same row operation, and the Pfaffian is
read off its block entries and the sign of its transform.

Every determinant runs one integer elimination: +-1 pivots on the same
kind of sparse rows, taken in least-fill order (`_unit_pivots`), and
fraction-free (Bareiss) elimination only on the block left without +-1
entries.  A row or column that empties stays in that block, where Bareiss
reads det = 0; singular input takes no other path.  An integer matrix
goes in as it is (`_int_det`, which also gives the modular finish its
modulus); Laurent and Q[q] entries go in by Kronecker substitution
(`_packed_units`, with the codec `_kronecker_width`, `_kronecker_pack`
and `_kronecker_unpack` of `rings`, which the matching oracle of `graphs`
shares).  The stable invariants over Q[q] read the same packed
elimination: its +-1 pivots are units, so only the block left is finished,
from its determinantal divisors when it has at most two rows or columns
and by `_smith` otherwise, and one call gives a matrix both its
determinant and its Q[q] invariants (`_det_and_qpoly_invariants`).
Products (`*`, `kron`) form only the products of nonzero entries.

Everything is exact; the Fourier duality matrix is the single
floating-point surface and returns complex entries.  It needs only the
Smith diagonal (the same transform-free route as `cokernel_of`), whose
product is |det M|: in Smith coordinates the pairing of coker M with
coker M^T is sum r_i s_i / d_i.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations, product
from math import gcd, isqrt, prod
from operator import add, mul, not_, sub

from kasteleyn.rings import (
    DomainError,
    ExactDivisionError,
    GuardExceeded,
    LaurentPoly,
    RationalPoly,
    _as_int,
    _decimal_text,
    _decimal_value,
    _divide_dense,
    _kronecker_pack,
    _kronecker_unpack,
    _kronecker_width,
    format_laurent,
    parse_laurent,
)


# ---------------------------------------------------------------------------
# ring adapters


class _IntRing:
    tag = "z"
    pid = True
    zero = 0
    one = 1

    # a plain int: bool and other int subclasses are stored as int, so
    # `is_zero` and `write_matrix` see canonical entries
    coerce = staticmethod(_as_int)

    is_zero = staticmethod(not_)

    @staticmethod
    def is_unit(a):
        return a in (1, -1)

    @staticmethod
    def unit_and_normal(a):
        """(u, u * a) for the unit u that makes a nonnegative."""
        return (-1, -a) if a < 0 else (1, a)

    @staticmethod
    def try_div(a, b):
        q, r = divmod(a, b)
        return q if r == 0 else None

    @staticmethod
    def gcdext(a, b):
        """(g, x, y) with g = xa + yb, g > 0."""
        old_r, r = a, b
        old_x, x = 1, 0
        old_y, y = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_x, x = x, old_x - q * x
            old_y, y = y, old_y - q * y
        if old_r < 0:
            old_r, old_x, old_y = -old_r, -old_x, -old_y
        return old_r, old_x, old_y

    @staticmethod
    def size_key(a):
        return abs(a)

    @staticmethod
    def to_str(a, compact=False):
        """Decimal text of any size (see `_decimal_text`)."""
        try:
            return str(a)
        except ValueError:      # past the interpreter's int -> str digit limit
            return _decimal_text(a)

    @staticmethod
    def parse(s):
        """An optional sign and ASCII digits, nothing else: no `1_0`, no
        non-ASCII digits.  DomainError otherwise.  Any number of digits."""
        digits = s[1:] if s[:1] in ("+", "-") else s
        if not (digits.isascii() and digits.isdigit()):
            raise DomainError(f"bad integer {s!r}")
        value = _decimal_value(digits)
        return -value if s[0] == "-" else value


class _QPolyRing:
    tag = "qpoly"
    pid = True
    zero = RationalPoly.zero()
    one = RationalPoly.one()

    coerce = staticmethod(RationalPoly.coerce)
    is_zero = staticmethod(RationalPoly.is_zero)
    is_unit = staticmethod(RationalPoly.is_unit)

    @staticmethod
    def unit_and_normal(a):
        """(u, u * a) for the unit u that makes a nonzero a monic."""
        return RationalPoly.const(Fraction(1) / a.leading_coeff()), a.monic()

    try_div = staticmethod(RationalPoly.try_divide)

    gcdext = staticmethod(RationalPoly.gcdext)

    @staticmethod
    def size_key(a):
        return (a.degree(), max(abs(c) for c in a.coeffs))

    @staticmethod
    def to_str(a, compact=False):
        return a.to_str(compact=True)   # Q[q] text is always compact

    parse = staticmethod(RationalPoly.parse)


class _LaurentRing:
    tag = "laurent"
    pid = False
    zero = LaurentPoly.zero()
    one = LaurentPoly.one()

    coerce = staticmethod(LaurentPoly.coerce)
    is_zero = staticmethod(LaurentPoly.is_zero)
    is_unit = staticmethod(LaurentPoly.is_unit)

    @staticmethod
    def unit_and_normal(a):
        """(u, u * a) for the unit u = +-q^k that takes a to `a.normal()`."""
        sign, exp, f = a.unit_normalize()
        return LaurentPoly._from_terms({-exp: sign}), f

    @staticmethod
    def try_div(a, b):
        # not bound: a counter patched on LaurentPoly.try_divide sees these calls
        return a.try_divide(b)

    @staticmethod
    def size_key(a):
        # invariant under units +-q^k, so read off a itself, not a.normal()
        t = a._terms
        return (max(t) - min(t), len(t), max(abs(c) for c in t.values()))

    to_str = staticmethod(format_laurent)
    parse = staticmethod(parse_laurent)


_RINGS = {"z": _IntRing, "laurent": _LaurentRing, "qpoly": _QPolyRing}


def ring_adapter(tag):
    try:
        return _RINGS[tag]
    except KeyError:
        raise DomainError(f"unknown ring tag {tag!r}") from None


# ---------------------------------------------------------------------------
# matrices


class ExactMatrix:
    """Immutable dense matrix over a tagged exact ring.  The constructor,
    `from_rows` and scalar products coerce every entry; `map_ring` coerces
    the image of each nonzero entry; the producers whose entries are ring
    elements by construction go through `_of_ring_elements`, which does
    not."""

    __slots__ = ("rows", "cols", "ring", "entries")

    def __init__(self, rows, cols, ring, entries):
        if rows < 0 or cols < 0:
            raise DomainError(f"negative shape {rows} x {cols}")
        ad = ring_adapter(ring)
        ents = tuple(tuple(ad.coerce(x) for x in row) for row in entries)
        if len(ents) != rows or any(len(r) != cols for r in ents):
            raise DomainError("entry grid does not match declared shape")
        self._fill(rows, cols, ring, ents)

    @classmethod
    def _of_ring_elements(cls, rows, cols, ring, entries):
        """A rows x cols matrix whose entries are already ring elements of
        `ring` in canonical form (what `coerce` would return); neither they
        nor the shape are checked."""
        M = object.__new__(cls)
        M._fill(rows, cols, ring, tuple(map(tuple, entries)))
        return M

    def _fill(self, rows, cols, ring, ents):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def from_rows(rows, ring="z"):
        rows = [list(r) for r in rows]
        if not rows:
            return ExactMatrix(0, 0, ring, [])
        return ExactMatrix(len(rows), len(rows[0]), ring, rows)

    @staticmethod
    def diagonal(values, ring="z", shape=None):
        ad = ring_adapter(ring)
        vals = [ad.coerce(v) for v in values]
        m = n = len(vals)
        if shape:
            m, n = shape
        if len(vals) > min(m, n):
            raise DomainError(f"{len(vals)} diagonal values do not fit a {m}x{n} matrix")
        grid = [[ad.zero] * n for _ in range(m)]
        for i, v in enumerate(vals):
            grid[i][i] = v
        return ExactMatrix._of_ring_elements(m, n, ring, grid)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def to_lists(self):
        return [list(r) for r in self.entries]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __repr__(self):
        return f"<ExactMatrix {self.rows}x{self.cols} over {self.ring}>"

    def transpose(self):
        cols = zip(*self.entries) if self.rows else [()] * self.cols
        return ExactMatrix._of_ring_elements(self.cols, self.rows, self.ring, cols)

    def __neg__(self):
        return ExactMatrix._of_ring_elements(
            self.rows, self.cols, self.ring,
            [[-x for x in row] for row in self.entries],
        )

    def __add__(self, other):
        self._compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("shape mismatch")
        return ExactMatrix._of_ring_elements(
            self.rows, self.cols, self.ring,
            [list(map(add, a, b)) for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return ExactMatrix(
                self.rows, self.cols, self.ring,
                [[x * other for x in row] for row in self.entries],
            )
        self._compat(other)
        if self.cols != other.rows:
            raise DomainError("shape mismatch in product")
        # row i of the product is the sum of a_ik * (row k of other) over the
        # nonzero a_ik, each row k taken at its nonzero entries only
        ad = ring_adapter(self.ring)
        is_zero, zero, width = ad.is_zero, ad.zero, other.cols
        right = [[(j, b) for j, b in enumerate(row) if not is_zero(b)]
                 for row in other.entries]
        out = []
        for row in self.entries:
            acc = [zero] * width
            for a, terms in zip(row, right):
                if terms and not is_zero(a):
                    for j, b in terms:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return ExactMatrix._of_ring_elements(self.rows, width, self.ring, out)

    def _compat(self, other):
        if self.ring != other.ring:
            raise DomainError(f"ring mismatch: {self.ring} vs {other.ring}")

    def kron(self, other):
        """Kronecker product.  Only products of two nonzero entries are
        formed (the rings are integral domains, so these are the nonzero
        entries of the product); every other entry is the ring's zero."""
        self._compat(other)
        ad = ring_adapter(self.ring)
        is_zero, zero, width = ad.is_zero, ad.zero, other.cols
        right = [[(l, b) for l, b in enumerate(row) if not is_zero(b)]
                 for row in other.entries]
        out = []
        for row in self.entries:
            left = [(j * width, a) for j, a in enumerate(row) if not is_zero(a)]
            for terms in right:
                acc = [zero] * (self.cols * width)
                for base, a in left:
                    for l, b in terms:
                        acc[base + l] = a * b
                out.append(acc)
        return ExactMatrix._of_ring_elements(
            self.rows * other.rows, self.cols * width, self.ring, out)

    def is_alternating(self):
        if self.rows != self.cols:
            return False
        ad = ring_adapter(self.ring)
        for i in range(self.rows):
            if not ad.is_zero(self.entries[i][i]):
                return False
            for j in range(i + 1, self.cols):
                if not ad.is_zero(self.entries[i][j] + self.entries[j][i]):
                    return False
        return True

    def map_ring(self, ring, fn):
        """The entrywise image under `fn`, a ring homomorphism into `ring`
        (every caller passes one: `to_qpoly`, `specialize_q`,
        `LaurentPoly.coerce`).  A zero entry maps to the target's zero;
        only the nonzero entries are mapped, each image coerced once."""
        is_zero = ring_adapter(self.ring).is_zero
        ad = ring_adapter(ring)
        coerce, zero = ad.coerce, ad.zero
        return ExactMatrix._of_ring_elements(
            self.rows, self.cols, ring,
            [[zero if is_zero(x) else coerce(fn(x)) for x in row] for row in self.entries],
        )

    def to_qpoly(self):
        if self.ring == "qpoly":
            return self
        if self.ring == "laurent":
            return self.map_ring("qpoly", RationalPoly.from_laurent)
        return self.map_ring("qpoly", RationalPoly.const)

    def specialize_q(self, q0):
        """Exact evaluation of a Laurent matrix at q = q0, integer result."""
        if self.ring != "laurent":
            raise DomainError("specialize_q needs a Laurent matrix")

        def ev(f):
            v = f.evaluate(q0)
            if isinstance(v, Fraction):
                raise DomainError("non-integer specialization")
            return v

        return self.map_ring("z", ev)


# ---------------------------------------------------------------------------
# matrix text format


def _entry_texts(ad, row):
    """The compact text of each entry of `row`; over "z" plain int text."""
    if ad is _IntRing:
        try:
            return list(map(str, row))
        except ValueError:      # an entry past the int -> str digit limit
            pass
    return [ad.to_str(x, compact=True) for x in row]


def write_matrix(M):
    ad = ring_adapter(M.ring)
    lines = [f"{M.rows} {M.cols} {M.ring}"]
    for row in M.entries:
        lines.append(" ".join(_entry_texts(ad, row)))
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty matrix text")
    head = lines[0].split()
    if len(head) != 3:
        raise DomainError("matrix header must be: rows cols ring")
    rows, cols, ring = _IntRing.parse(head[0]), _IntRing.parse(head[1]), head[2]
    ad = ring_adapter(ring)
    grid = []
    for ln in lines[1:]:
        grid.append([ad.parse(tok) for tok in ln.split()])
    if len(grid) != rows or any(len(r) != cols for r in grid):
        raise DomainError("matrix body does not match header shape")
    return ExactMatrix(rows, cols, ring, grid)


# ---------------------------------------------------------------------------
# elementary-operation workspace


class _Workspace:
    """Mutable sparse copy of a matrix A: row i is a map column -> nonzero
    entry, and cols[j] is the set of rows nonzero in column j, so an
    operation costs the nonzeros it touches.  With transforms=True it also
    carries the transforms L, R, identities at the start, with
    L * original * R = current: L by rows and R by columns, each a map
    index -> nonzero entry, so a row operation acts alike on rows of A and
    L and a column operation on columns of A and R.  Without, L and R are
    None and only A is updated; `alternating_smith_form` then sets R
    alone, the transform B of its congruence steps."""

    def __init__(self, M, transforms=True):
        self.ad = ad = ring_adapter(M.ring)
        self.m, self.n = M.rows, M.cols
        is_zero = ad.is_zero
        self.A = [{j: x for j, x in enumerate(row) if not is_zero(x)} for row in M.entries]
        self.cols = [set() for _ in range(self.n)]
        for i, row in enumerate(self.A):
            for j in row:
                self.cols[j].add(i)
        self.ops = 0
        self.L = self.R = None
        if transforms:
            self.L = [{i: ad.one} for i in range(self.m)]
            self.R = [{j: ad.one} for j in range(self.n)]

    def _put(self, i, j, x):
        """A[i][j] = x, kept sparse."""
        if self.ad.is_zero(x):
            self.A[i].pop(j, None)
            self.cols[j].discard(i)
        else:
            self.A[i][j] = x
            self.cols[j].add(i)

    def _mix(self, a, b, x, y, u, v):
        """The maps x a + y b and u a + v b."""
        zero, is_zero = self.ad.zero, self.ad.is_zero
        pairs = [(j, a.get(j, zero), b.get(j, zero)) for j in a.keys() | b.keys()]
        return ({j: z for j, p, q in pairs if not is_zero(z := x * p + y * q)},
                {j: z for j, p, q in pairs if not is_zero(z := u * p + v * q)})

    # row ops: current <- E * current, L <- E * L

    def swap_rows(self, i, j):
        if i == j:
            return
        self.ops += 1
        A = self.A
        for c in A[i].keys() ^ A[j].keys():
            self.cols[c] ^= {i, j}
        A[i], A[j] = A[j], A[i]
        if self.L is not None:
            self.L[i], self.L[j] = self.L[j], self.L[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        self.ops += 1
        A, cols = self.A, self.cols
        for r in cols[i] & cols[j]:
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in cols[i] - cols[j]:
            A[r][j] = A[r].pop(i)
        for r in cols[j] - cols[i]:
            A[r][i] = A[r].pop(j)
        cols[i], cols[j] = cols[j], cols[i]
        if self.R is not None:
            self.R[i], self.R[j] = self.R[j], self.R[i]

    def scale_row(self, i, u):
        """Multiply row i by a unit u."""
        self.ops += 1
        self.A[i] = {j: u * x for j, x in self.A[i].items()}
        if self.L is not None:
            self.L[i] = {j: u * x for j, x in self.L[i].items()}

    def addmul_row(self, i, j, c):
        """row_i += c * row_j."""
        self.ops += 1
        _add_multiple(self.A[i], c, self.A[j], self.ad.is_zero, self.cols, i)
        if self.L is not None:
            _add_multiple(self.L[i], c, self.L[j], self.ad.is_zero)

    def addmul_col(self, j, i, c):
        """col_j += c * col_i."""
        self.ops += 1
        zero = self.ad.zero
        for r in self.cols[i]:
            row = self.A[r]
            self._put(r, j, row.get(j, zero) + c * row[i])
        if self.R is not None:
            _add_multiple(self.R[j], c, self.R[i], self.ad.is_zero)

    def mix_rows(self, i, j, x, y, u, v):
        """rows (i, j) <- (x ri + y rj, u ri + v rj); xv - yu must be a unit."""
        self.ops += 1
        A, zero = self.A, self.ad.zero
        for c in A[i].keys() | A[j].keys():
            p, q = A[i].get(c, zero), A[j].get(c, zero)
            self._put(i, c, x * p + y * q)
            self._put(j, c, u * p + v * q)
        if self.L is not None:
            self.L[i], self.L[j] = self._mix(self.L[i], self.L[j], x, y, u, v)

    def mix_cols(self, i, j, x, y, u, v):
        """cols (i, j) <- (x ci + y cj, u ci + v cj)."""
        self.ops += 1
        zero = self.ad.zero
        for r in self.cols[i] | self.cols[j]:
            p, q = self.A[r].get(i, zero), self.A[r].get(j, zero)
            self._put(r, i, x * p + y * q)
            self._put(r, j, u * p + v * q)
        if self.R is not None:
            self.R[i], self.R[j] = self._mix(self.R[i], self.R[j], x, y, u, v)

    def clear_unit(self, k):
        """Clear row k and column k against a unit pivot p at (k, k): the
        row steps row_i -= a_ik p^-1 row_k, one for each other row of
        column k, then the column steps col_j -= a_kj p^-1 col_k.  Column
        k is clear by then, so the column steps only zero the rest of row k:
        those entries are dropped (one operation each) and the multipliers
        are taken only for R.  The quotient by a unit is exact, so each
        multiplier is a product with -p^-1, formed once: no ring division."""
        A, R, ad = self.A, self.R, self.ad
        p = A[k][k]
        t = -ad.unit_and_normal(p)[0]
        for i in [i for i in self.cols[k] if i != k]:
            self.addmul_row(i, k, A[i][k] * t)
        for j, x in A[k].items():
            if j != k:
                self.ops += 1
                self.cols[j].discard(k)
                if R is not None:
                    _add_multiple(R[j], x * t, R[k], ad.is_zero)
        A[k] = {k: p}

    def block(self, k):
        """A[k:][k:] as dense row lists."""
        return _dense(self.A[k:], self.n, self.ad.zero, k)

    def diagonal(self):
        return [self.A[i].get(i, self.ad.zero) for i in range(min(self.m, self.n))]

    def transforms(self):
        """(L, R) as matrices, or (None, None) when they were not carried."""
        if self.L is None:
            return None, None
        ring, zero, m, n = self.ad.tag, self.ad.zero, self.m, self.n
        return (ExactMatrix._of_ring_elements(m, m, ring, _dense(self.L, m, zero)),
                ExactMatrix._of_ring_elements(n, n, ring, zip(*_dense(self.R, n, zero))))


def _dense(maps, width, zero, k=0):
    """The maps index -> entry as lists of width - k entries, index j at
    position j - k."""
    out = []
    for row in maps:
        dense = [zero] * (width - k)
        for j, x in row.items():
            dense[j - k] = x
        out.append(dense)
    return out


def _add_multiple(row, t, src, is_zero, cols=None, i=None):
    """row += t * src, both maps index -> nonzero entry; with `cols`, keep
    cols[j] the set of rows i nonzero at j."""
    for j, x in src.items():
        y = row.get(j)
        if y is None:
            row[j] = t * x
            if cols is not None:
                cols[j].add(i)
        else:
            y = y + t * x
            if not is_zero(y):
                row[j] = y
            else:
                del row[j]
                if cols is not None:
                    cols[j].discard(i)


# ---------------------------------------------------------------------------
# Smith normal form: one elimination driver for every ring


class SmithForm:
    """Diagonal normal form with witness transforms: left * M * right = diag.
    `left` and `right` are None when the form was computed without them."""

    def __init__(self, ring, shape, diagonal, left, right):
        self.ring = ring
        self.shape = shape
        self.diagonal = tuple(diagonal)
        self.left = left
        self.right = right

    def diagonal_matrix(self):
        return ExactMatrix.diagonal(self.diagonal, self.ring, shape=self.shape)

    def verify(self, M):
        """Exact check of the defining identities; returns True or raises
        AssertionError.

        First L * M * R must equal the diagonal form, entry for entry (the
        products skip zero entries, so this costs the nonzeros of the
        factors rather than n^3 multiplications).  Then L and R must be
        unimodular.  When M is square with det M != 0, taking determinants
        gives det L * det R = det D / det M, with det D the product of all
        min(m, n) diagonal entries of D; in an integral domain both
        determinants are units iff that exact quotient exists and is a
        unit, so one determinant of M, whose entries are small and, for a
        Kasteleyn matrix, mostly +-1 pivots of the sparse kernel, stands in
        for those of L and R, whose entries can be huge.  A singular or
        non-square M falls back to determinant(L) and determinant(R).
        Last, the diagonal must be a divisibility chain."""
        D = self.diagonal_matrix()
        if self.left * M * self.right != D:
            raise AssertionError("left*M*right is not the diagonal form")
        ad = ring_adapter(self.ring)
        det_M = determinant(M) if M.rows == M.cols else ad.zero
        # a diagonal shorter than min(m, n) is padded with zeros in D
        det_D = prod((D[i, i] for i in range(min(self.shape))), start=ad.one)
        if not _unimodular(ad, det_M, det_D, (self.left, self.right)):
            raise AssertionError("transform determinant is not a unit")
        _check_chain(ad, self.diagonal, "divisibility chain broken")
        return True

    def __repr__(self):
        ad = ring_adapter(self.ring)
        return f"<SmithForm {self.shape} diag={[ad.to_str(d) for d in self.diagonal]}>"


def _unimodular(ad, det_M, det_D, transforms):
    """Whether every matrix in `transforms` has a unit determinant, given
    an identity in which their determinants (with multiplicity) times det_M
    equal det_D.  When det_M != 0 that product is the exact quotient
    det_D / det_M, a unit iff each factor is one (an integral domain);
    when det_M = 0 each transform's own determinant is taken."""
    if ad.is_zero(det_M):
        return all(ad.is_unit(determinant(T)) for T in transforms)
    q = ad.try_div(det_D, det_M)
    return q is not None and ad.is_unit(q)


def _check_chain(ad, entries, message):
    """Raise AssertionError(message) unless each entry divides the next."""
    for d, e in zip(entries, entries[1:]):
        if not ad.is_zero(e) and (ad.is_zero(d) or ad.try_div(e, d) is None):
            raise AssertionError(message)


def _pick_pivot(ring, A, k):
    """(i, j) of the pivot in the block A[k:][k:], read off the rows
    A[k:], which are zero left of column k: the first unit in row-major
    order, else the first entry of least size; None when the block is zero.
    Over "z" and "laurent" the units are exactly the entries of least size,
    so this is the first of the block's (size, row, col) order."""
    is_unit = ring.is_unit
    for i in range(k, len(A)):
        units = [j for j, x in A[i].items() if is_unit(x)]
        if units:
            return i, min(units)
    entries = _by_size(ring, A, k)
    return min(entries)[1:] if entries else None


def _by_size(ring, A, k):
    """The nonzero entries of the block A[k:][k:] as (size, row, col)."""
    size_key = ring.size_key
    return [(size_key(x), i, j) for i in range(k, len(A)) for j, x in A[i].items()]


def _smith(ws, max_steps=None):
    """The Smith elimination for every ring tag, in place on `ws` (with or
    without its transforms).  Returns None when the diagonal is reached,
    else (outcome, pair, k) for the pivot k where it stopped: "witnessed"
    with the stuck pair (pivot, r) once every candidate pivot got stuck, or
    "inconclusive" with pair None past `max_steps` operations.

    One loop on the sparse workspace takes pivot k = 0, 1, ...: a lozenge
    Kasteleyn matrix has about three nonzeros per row, so nearly every
    pivot is a unit, and clearing its row and column costs their nonzeros.
    Each pivot is unit-normalized once its cross is clear and it divides
    the rest of its block.  When a pivot gets stuck (only over the Laurent
    ring), the later candidates are tried in (size, row, col) order.

    Over "z", with or without transforms, the first block A[k:][k:] with
    no unit entry goes to `_finish_modulo_det`, which finishes it (and the
    transforms) when it is square and nonsingular; otherwise the
    elimination goes on as above."""
    ring, A = ws.ad, ws.A
    modular = ring.tag == "z"
    for k in range(min(ws.m, ws.n)):
        pivot = _pick_pivot(ring, A, k)
        if pivot is None:
            break
        if modular and not ring.is_unit(A[pivot[0]][pivot[1]]):
            modular = False
            if _finish_modulo_det(ws, k):
                return None
        tried = 0
        while True:
            ws.swap_rows(k, pivot[0])
            ws.swap_cols(k, pivot[1])
            failure = _clear_pivot(ws, ring, k, max_steps)
            if failure is None or failure[0] == "inconclusive":
                break
            tried += 1
            candidates = sorted(_by_size(ring, A, k))
            if tried >= len(candidates):
                break
            pivot = candidates[tried][1:]
        if failure is not None:
            return failure + (k,)
        u, normal = ring.unit_and_normal(A[k][k])
        if A[k][k] != normal:
            ws.scale_row(k, u)
    return None


def _clear_pivot(ws, ring, k, max_steps):
    """Pass over row k and column k until they are zero outside the pivot
    (k, k) and the pivot divides every entry below and right of it.  A
    unit pivot is cleared in one pass (`clear_unit`).  Otherwise, once the
    cross is clear, an interior entry the pivot fails to divide is added
    into the pivot row and the passes go on.  Returns None when done,
    ("witnessed", (pivot, r)) after a pass that applied no operation, or
    ("inconclusive", None) past max_steps operations."""
    A, cols = ws.A, ws.cols
    while True:
        if max_steps is not None and ws.ops > max_steps:
            return "inconclusive", None
        if ring.is_unit(A[k][k]):
            ws.clear_unit(k)
            return None
        ops = ws.ops
        stuck = None
        # a step on row i changes rows k and i only, so the rest of column
        # k is as listed when its turn comes (likewise for row k)
        for i in sorted(cols[k]):
            if i > k:
                stuck = _reduce_entry(
                    ring, A[k][k], k, i, A[i][k], ws.addmul_row, ws.mix_rows, ws.swap_rows
                ) or stuck
        for j in sorted(A[k]):
            if j > k:
                stuck = _reduce_entry(
                    ring, A[k][k], k, j, A[k][j], ws.addmul_col, ws.mix_cols, ws.swap_cols
                ) or stuck
        if cols[k] == {k} and A[k].keys() == {k}:
            p = A[k][k]
            if ring.is_unit(p):
                return None
            bad = _undivided_row(ring, A, k + 1, ws.m, p)
            if bad is None:
                return None
            ws.addmul_row(k, bad, ring.one)
        if ws.ops == ops:
            return "witnessed", stuck


def _undivided_row(ring, A, start, stop, p):
    """The first row i in start..stop-1 with an entry that the pivot p does
    not divide, or None."""
    return next((i for i in range(start, stop)
                 if any(ring.try_div(x, p) is None for x in A[i].values())), None)


def _reduce_entry(ring, p, k, i, b, addmul, mix, swap):
    """Reduce the nonzero entry b at (i, k) against the pivot p at (k, k)
    by the two moves of every elimination here.  Over a PID: subtract the
    exact multiple b/p of the pivot row, else apply the determinant-1
    Bezout mix that puts g = gcd(p, b) at (k, k).  Over the Laurent ring:
    subtract the multiple of the centered reduction (`_laurent_reduce`),
    then swap a smaller remainder r in as the pivot, or return (p, r) as
    stuck.  Called with the column operations, b sits at (k, i) instead;
    called by `_alternating_blocks` with congruence steps, p sits at
    (row, k) and b at (row, i) for a row of the pivot block; called by
    `_clear_first_column`, the steps act on residues modulo a determinant."""
    if ring.pid:
        t = ring.try_div(b, p)
        if t is not None:
            addmul(i, k, -t)
        else:
            g, x, y = ring.gcdext(p, b)
            mix(k, i, x, y, -ring.try_div(b, g), ring.try_div(p, g))
        return None
    t, r = _laurent_reduce(b, p)
    if not ring.is_zero(t):
        addmul(i, k, -t)
    if ring.is_zero(r):
        return None
    if ring.size_key(r) < ring.size_key(p):
        swap(k, i)
        return None
    return p, r


def _finish_modulo_det(ws, k):
    """Write the invariant factors of the integer block B = A[k:][k:] on its
    diagonal, zeros elsewhere, and return True; return False and leave `ws`
    as it is when B is not square or det B = 0.

    With D = |det B|, B adj(B) = det(B) I puts D Z^n in the column lattice
    of B, so coker B = Z^n / (B Z^n + D Z^n) and every entry may be kept as
    a symmetric residue mod D.  Bezout row and column steps diagonalize B
    mod D; then coker B = sum Z/gcd(a_ii, D), and gcd/lcm swaps turn these
    orders into a divisibility chain S, whose product must be D (Hafner and
    McCurley 1991; Cohen, GTM 138, Alg. 2.4.14).

    With transforms, the column steps stay free: [B | D I] spans the same
    column lattice as B.  Every row step, the gcd/lcm swaps included, is
    applied exactly to a row transform U and inversely to U^-1, so that
    U B Z^n = S Z^n at the end; then V = adj(B) U^-1 S / det B is integral
    (`_modular_transforms`), U B V = S, and prod(S) = D makes V
    unimodular.  L and R take U and V on rows and columns k.., so every
    entry of the witness is bounded by this route, not by an elimination
    order."""
    if ws.m != ws.n:
        return False
    block = ws.block(k)
    D = abs(_int_det(block))
    if not D:
        return False
    half = D // 2

    def residue(x):
        r = x % D
        return r - D if r > half else r

    B = [[residue(x) for x in row] for row in block]
    steps = None if ws.L is None else _RowSteps(len(B))
    # B holds the transpose of the block's residues after an odd number of
    # transposes, and its row steps are then free column steps
    flipped = False
    factors = []
    while B:
        entries = [(abs(x), i, j) for i, row in enumerate(B) for j, x in enumerate(row) if x]
        if not entries:
            factors += [D] * len(B)
            break
        _, i, j = min(entries)
        t = len(factors)
        B[0], B[i] = B[i], B[0]
        for row in B:
            row[0], row[j] = row[j], row[0]
        if steps is not None:
            steps.swap(t, t + (j if flipped else i))
        # clear column 0 by row steps, transpose, and repeat until the
        # pivot's row and column are both clear (transposing keeps coker's
        # invariant factors)
        while any(row[0] for row in B[1:]) or any(B[0][1:]):
            _clear_first_column(B, residue, None if flipped else steps, t)
            B = [list(col) for col in zip(*B)]
            flipped = not flipped
        factors.append(gcd(B[0][0], D))
        B = [row[1:] for row in B[1:]]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = gcd(a, b)
            if steps is not None and g != a:
                # rows (i, j) <- (r_i + r_j, r_j - (y b / g)(r_i + r_j)) with
                # g = x a + y b take diag(a, b) Z^2 to diag(g, ab/g) Z^2
                y = _IntRing.gcdext(a, b)[2]
                steps.addmul(i, j, 1)
                steps.addmul(j, i, -(y * b // g))
            factors[i], factors[j] = g, a // g * b
    if prod(factors) != D:
        raise ExactDivisionError(f"invariant factors modulo the determinant "
                                 f"multiply to {prod(factors)}, not |det| = {D}")
    if steps is not None:
        _modular_transforms(ws, k, block, steps, factors)
    for i, f in enumerate(factors, k):
        ws.A[i], ws.cols[i] = {i: f}, {i}
    return True


class _RowSteps:
    """A row transform U of the modular finish, the identity at the start,
    with its inverse kept by columns: W[j] is column j of U^-1.  A row step
    E acts as U <- E U and U^-1 <- U^-1 E^-1."""

    def __init__(self, n):
        self.U = [[int(i == j) for j in range(n)] for i in range(n)]
        self.W = [row[:] for row in self.U]

    def swap(self, i, j):
        U, W = self.U, self.W
        U[i], U[j] = U[j], U[i]
        W[i], W[j] = W[j], W[i]

    def addmul(self, i, j, c):
        """row_i += c * row_j."""
        U, W = self.U, self.W
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        W[j] = [a - c * b for a, b in zip(W[j], W[i])]

    def mix(self, i, j, x, y, u, v):
        """rows (i, j) <- (x r_i + y r_j, u r_i + v r_j), with xv - yu = 1."""
        U, W = self.U, self.W
        p, q = U[i], U[j]
        U[i] = [x * a + y * b for a, b in zip(p, q)]
        U[j] = [u * a + v * b for a, b in zip(p, q)]
        p, q = W[i], W[j]
        W[i] = [v * a - u * b for a, b in zip(p, q)]
        W[j] = [x * b - y * a for a, b in zip(p, q)]


def _clear_first_column(B, residue, steps, at):
    """Zero B[1:][0] by the unimodular row steps of `_reduce_entry` on the
    residue matrix B, each row taken back to its residues.  With `steps`,
    each step on rows (i, j) of B is applied to its rows (at + i, at + j)
    too."""

    def addmul(i, j, c):
        B[i] = [residue(a + c * b) for a, b in zip(B[i], B[j])]
        if steps is not None:
            steps.addmul(at + i, at + j, c)

    def mix(i, j, x, y, u, v):
        p, q = B[i], B[j]
        B[i] = [residue(x * a + y * b) for a, b in zip(p, q)]
        B[j] = [residue(u * a + v * b) for a, b in zip(p, q)]
        if steps is not None:
            steps.mix(at + i, at + j, x, y, u, v)

    for i in range(1, len(B)):
        if B[i][0]:
            _reduce_entry(_IntRing, B[0][0], 0, i, B[i][0], addmul, mix, None)


def _modular_transforms(ws, k, block, steps, factors):
    """L <- diag(I, U) L and R <- R diag(I, V) for the modular finish of the
    block at k, with V = adj(B) U^-1 S / det B (S = diag(factors)) solved
    by exact division; ExactDivisionError if a quotient is not integral.
    The products for L and R skip zero entries."""
    d, adj = _int_adjugate(block)
    V = []
    for f, w in zip(factors, steps.W):
        col = []
        for row in adj:
            q, r = divmod(f * sum(map(mul, row, w)), d)
            if r:
                raise ExactDivisionError("modular Smith transform is not integral")
            col.append(q)
        V.append(col)
    for maps, T in ((ws.L, steps.U), (ws.R, V)):
        old = maps[k:]
        for i, coeffs in enumerate(T, k):
            out = None
            for c, src in zip(coeffs, old):
                if not c:
                    continue
                if out is None:
                    out = {j: c * x for j, x in src.items()}
                else:
                    _add_multiple(out, c, src, not_)
            maps[i] = out


def _int_adjugate(rows):
    """(d, Y) for a nonsingular square integer matrix B given as row lists
    (left as they are), with d = +-det B and Y = d B^-1: one fraction-free
    Gauss-Jordan pass on [B | I], whose divisions are exact."""
    n = len(rows)
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next(i for i in range(k, n) if A[i][k])
        A[k], A[piv] = A[piv], A[k]
        row_k = A[k]
        p = row_k[k]
        for i in range(n):
            if i != k:
                a = A[i][k]
                A[i] = [(p * x - a * y) // prev for x, y in zip(A[i], row_k)]
        prev = p
    return prev, [row[n:] for row in A]


def _smith_form(M, transforms):
    """The finished SmithForm of M over any ring tag, transforms only if
    asked: `_smith` on a workspace over "z" and "qpoly", `laurent_smith_attempt`
    over "laurent", where a stuck attempt is a refusal (DomainError)."""
    if M.ring == "laurent":
        attempt = laurent_smith_attempt(M, transforms=transforms)
        if not attempt.success:
            raise DomainError(f"laurent normal form attempt failed: {attempt.outcome}")
        return attempt.smith
    ws = _Workspace(M, transforms)
    _smith(ws)
    return SmithForm(M.ring, (ws.m, ws.n), ws.diagonal(), *ws.transforms())


def smith_normal_form(M, verify=False):
    """Smith normal form of M over any ring tag, with unit-determinant
    witness transforms L, R (L * M * R = diagonal); over "laurent" a stuck
    attempt is refused (`_smith_form`).  Only callers that read L or R need
    this; the others take the same diagonal without them (`_smith_diagonal`).
    Over "z" a square nonsingular block left without units is finished
    modulo its determinant here too, so L and R stay bounded by that route
    (`_finish_modulo_det`)."""
    form = _smith_form(M, transforms=True)
    if verify:
        form.verify(M)
    return form


def _smith_diagonal(M):
    """The diagonal of `smith_normal_form(M)` by the same elimination,
    without building L and R."""
    return _smith_form(M, transforms=False).diagonal


# ---------------------------------------------------------------------------
# alternating Smith normal form (integer ring)


class AltSmithForm:
    """Congruence normal form of an alternating matrix: transform B with
    B^T A B block-diagonal, blocks [[0, e], [-e, 0]], e_i | e_{i+1}."""

    def __init__(self, ring, n, block_entries, transform):
        self.ring = ring
        self.n = n
        self.block_entries = tuple(block_entries)
        self.transform = transform

    def block_matrix(self):
        ad = ring_adapter(self.ring)
        grid = [[ad.zero] * self.n for _ in range(self.n)]
        for i, e in enumerate(self.block_entries):
            grid[2 * i][2 * i + 1] = e
            grid[2 * i + 1][2 * i] = -e
        return ExactMatrix(self.n, self.n, self.ring, grid)

    def verify(self, A):
        """Exact check of the defining identities; returns True or raises
        AssertionError.

        First B^T * A * B must equal the block form K (the products skip
        zero entries).  Then B must be unimodular: det(B)^2 * det A = det K,
        the square of the product of all n // 2 block entries of K, so when
        det A != 0, det B is a unit iff the exact quotient det K / det A
        exists and is a unit.  A singular A (every A of odd size) falls
        back to determinant(B).  Last, the block entries must be a
        divisibility chain."""
        B, K = self.transform, self.block_matrix()
        if B.transpose() * A * B != K:
            raise AssertionError("B^T A B is not the block form")
        ad = ring_adapter(self.ring)
        # blocks past the given entries are zero in K
        pf_K = prod((K[2 * i, 2 * i + 1] for i in range(self.n // 2)), start=ad.one)
        if not _unimodular(ad, determinant(A), pf_K ** 2, (B,)):
            raise AssertionError("congruence transform is not unimodular")
        _check_chain(ad, self.block_entries, "block divisibility chain broken")
        return True

    def __repr__(self):
        return f"<AltSmithForm n={self.n} blocks={list(self.block_entries)}>"


def alternating_smith_form(A, verify=False):
    """Alternating Smith normal form over the integers: the block entries
    and the transform B of `_alternating_blocks`, run on a workspace that
    carries B as its column transform R."""
    if A.ring != "z":
        raise DomainError("alternating normal form implemented over the integers")
    if not A.is_alternating():
        raise DomainError("matrix is not alternating")
    n = A.rows
    ws = _Workspace(A, transforms=False)
    ws.R = [{j: 1} for j in range(n)]
    entries, _ = _alternating_blocks(ws)
    B = ExactMatrix._of_ring_elements(n, n, "z", zip(*_dense(ws.R, n, 0)))
    form = AltSmithForm("z", n, entries, B)
    if verify:
        form.verify(A)
    return form


def _alternating_blocks(ws):
    """The congruence elimination of an alternating integer matrix, in
    place on `ws`: each step E takes A to E^T A E, as a column operation
    followed by the same row operation, and the column transform R, when
    carried, to R E, so R ends as the B of B^T A B = the block form.
    Returns (block entries, det B).

    For k = 0, 2, 4, ... the pivot of `_pick_pivot` (the first unit, else
    the least entry) is swapped to (k, k+1).  Rows k and k+1 are cleared
    against it by `_reduce_entry`: an exact quotient is an add-multiple,
    else a Bezout mix (xv - yu = 1) puts the gcd at the pivot; a mix
    against row k+1 may refill row k, so the passes repeat until both rows
    are clear.  A pivot that is not a unit must then divide every entry
    of the rows below; the first row with an entry it does not divide is
    added into row k and the passes go on.  A negative block entry is
    flipped by swapping k and k+1.  det B is -1 per swap of two distinct
    indices and +1 per add-multiple and per Bezout mix, so the Pfaffian
    of the input is det B times the product of the block entries."""
    ring, A, n = ws.ad, ws.A, ws.n
    det = 1

    def swap(i, j):
        nonlocal det
        if i != j:
            ws.swap_cols(i, j)
            ws.swap_rows(i, j)
            det = -det

    def addmul(j, i, c):
        ws.addmul_col(j, i, c)
        ws.addmul_row(j, i, c)

    def mix(i, j, x, y, u, v):
        ws.mix_cols(i, j, x, y, u, v)
        ws.mix_rows(i, j, x, y, u, v)

    for k in range(0, n - 1, 2):
        pivot = _pick_pivot(ring, A, k)
        if pivot is None:
            break
        # |a_ij| = |a_ji| and rows come first in the pivot order, so i < j
        i, j = pivot
        swap(k, i)
        swap(k + 1, j)
        while True:
            # a step against the pivot at (p, q) changes row p only at q and j
            for p, q in ((k, k + 1), (k + 1, k)):
                for j in sorted(A[p]):
                    if j > k + 1:
                        _reduce_entry(ring, A[p][q], q, j, A[p][j], addmul, mix, None)
            if len(A[k]) == len(A[k + 1]) == 1:
                a = A[k][k + 1]
                if ring.is_unit(a):
                    break
                bad = _undivided_row(ring, A, k + 2, n, a)
                if bad is None:
                    break
                addmul(k, bad, 1)
        if A[k][k + 1] < 0:
            swap(k, k + 1)
    return [A[k].get(k + 1, 0) for k in range(0, n - 1, 2)], det


# ---------------------------------------------------------------------------
# Laurent-ring normal form attempt


class NormalFormAttempt:
    """Outcome of the heuristic Smith reduction over Z[q, q^-1].

    outcome: "success" | "witnessed" | "inconclusive".
    On success `smith` holds a SmithForm over the Laurent ring.  On a
    witnessed failure `witness` is the blocking pair (p, b): neither divides
    the other and no elementary reduction shrinks them, so the entry ideal
    (p, b) is (heuristically) non-principal; `residual` carries the submatrix
    where reduction stopped, `left`/`right` the partial transforms.  A run
    with transforms=False builds no transforms: `left`/`right` (and the
    `smith` form's) are None, everything else is the same.
    """

    def __init__(self, outcome, smith=None, witness=None, residual=None,
                 left=None, right=None, iterations=0):
        self.outcome = outcome
        self.smith = smith
        self.witness = witness
        self.residual = residual
        self.left = left
        self.right = right
        self.iterations = iterations

    @property
    def success(self):
        return self.outcome == "success"

    def __repr__(self):
        if self.success:
            return f"<NormalFormAttempt success {self.smith!r}>"
        if self.outcome == "witnessed":
            return f"<NormalFormAttempt witnessed {tuple(str(w) for w in self.witness)}>"
        return "<NormalFormAttempt inconclusive>"


def _laurent_reduce(b, p):
    """Reduce b modulo ring multiples of p; returns (multiplier, remainder)
    with remainder = b - multiplier * p, multiplier in Z[q, q^-1].

    Each step is the first of these that applies: the exact quotient, which
    ends the reduction; for a monomial p = c q^k, every coefficient reduced
    to its centered residue mod |c|; when the remainder is at least as long
    as p, the centered quotient of its top or bottom coefficient by p's,
    whichever end shrinks it more; the lattice step of `_lattice_step`.
    The reduction stops when no step makes the remainder smaller by the
    size key (span, |top|, |bottom|, L1 norm).  The remainder is kept as
    its lowest exponent and coefficient list, the multiplier as a map
    exponent -> coefficient, and only the pair returned is built as
    Laurent polynomials."""
    if b.is_zero():
        return LaurentPoly.zero(), b
    lo, R = b._dense()
    lo_p, P = p._dense()
    t = {}
    while R:
        full = _divide_dense(R, P)
        if full is not None:
            for e, c in enumerate(full, lo - lo_p):
                t[e] = t.get(e, 0) + c
            R = []
            break
        if len(P) == 1:
            # p is c * q^k with |c| > 1; reduce every coefficient of r mod |c|
            c = abs(P[0])
            psign = 1 if P[0] > 0 else -1
            moved = False
            for i, ce in enumerate(R):
                qq = ce // c if ce >= 0 else -((-ce) // c)
                if abs(ce - qq * c) > c // 2:
                    qq += 1 if ce > 0 else -1
                if qq:
                    e = lo + i - lo_p
                    t[e] = t.get(e, 0) + qq * psign
                    R[i] = ce - qq * c
                    moved = True
            if not moved:
                break
            shift, R = _trimmed(R)
            lo += shift
            continue
        step = None
        if len(R) >= len(P):
            # Euclidean descent on the end coefficients with centered
            # quotients (halved remainders control coefficient growth);
            # pick whichever end shrinks the entry more
            step = _smallest_at_ends(R, P, ((len(R) - len(P), _centered_quotient(R[-1], P[-1])),
                                            (0, _centered_quotient(R[0], P[0]))), _size_key(R))[1]
        if step is None:
            step = _lattice_step(R, P)
            if step is None:
                break
        o, c = step
        e = lo + o - lo_p
        t[e] = t.get(e, 0) + c
        shift, R = _trimmed(_subtract_window(R, P, o, c))
        lo += min(o, 0) + shift
    return (LaurentPoly._from_terms({e: c for e, c in t.items() if c}),
            LaurentPoly._from_terms({lo + i: c for i, c in enumerate(R) if c}))


def _centered_quotient(a, b):
    """Quotient q with |a - q b| <= |b| / 2, deterministic at ties."""
    q, rem = divmod(a, b)
    if 2 * abs(rem) > abs(b):
        q += 1 if b > 0 else -1
    return q


def _lattice_step(R, P):
    """Size-reduction of the coefficient list R against monomial multiples
    of P (both lowest term first, with nonzero ends): the (o, c) for which
    R - c q^o P, P[0] landing at R[o], is strictly smallest by the size key
    and smaller than R, c being the centered projection of R on q^o P or
    one off it, the first such at ties; None when no shift helps.

    A window overhanging one end of R must reach its other end, or the
    span grows; so o runs over len(R) - len(P) when that is negative, then
    0 .. len(R) - len(P).  Only the windows at the two ends can move the
    span or an end coefficient, and only their keys are built in full:
    every other window keeps R[0] and R[-1], so its key differs from R's in
    the L1 norm alone, and it is sized by that norm without building the
    result or searching for its ends."""
    nr, np_ = len(R), len(P)
    pp = sum(map(mul, P, P))
    top = nr - np_

    def candidates(o):
        lo, hi = max(o, 0), min(o + np_, nr)
        c0 = _centered_quotient(sum(map(mul, P[lo - o:hi - o], R[lo:hi])), pp)
        return [(o, c) for c in {c0, c0 + 1, c0 - 1} - {0}]

    base = _size_key(R)
    best, step = _smallest_at_ends(R, P, [w for o in ((top, 0) if top < 0 else (0,))
                                          for w in candidates(o)], base)
    # an interior window wins by an L1 norm below `cap`, and not at all once
    # a bottom window has shortened R or shrunk an end coefficient
    if best[:3] == base[:3]:
        cap, l1 = best[3], base[3]
        acc = [0, *accumulate(map(abs, R))]
        for o in range(1, top):
            overlap = R[o:o + np_]
            c0 = _centered_quotient(sum(map(mul, P, overlap)), pp)
            rest = l1 - acc[o + np_] + acc[o]
            # overlap - c P for c = c0 and c0 +- 1, from one product c0 P
            D = list(map(sub, overlap, map(c0.__mul__, P))) if c0 else overlap
            for c in {c0, c0 + 1, c0 - 1} - {0}:
                size = rest + sum(map(abs, D if c == c0 else map(sub if c > c0 else add, D, P)))
                if size < cap:
                    cap, step = size, (o, c)
        best = base[:3] + (cap,)
    if top > 0:
        best, step = _smallest_at_ends(R, P, candidates(top), best, step)
    return step


def _smallest_at_ends(R, P, windows, best, step=None):
    """(key, (o, c)) for the first strictly smallest size key of R - c q^o P
    over the (o, c) of `windows` with c != 0, if that key is below `best`;
    else (best, step)."""
    for o, c in windows:
        if c:
            key = _size_key(_trimmed(_subtract_window(R, P, o, c))[1])
            if key < best:
                best, step = key, (o, c)
    return best, step


def _size_key(R):
    """(span, |top|, |bottom|, L1 norm) of a coefficient list with nonzero
    ends, (-1, 0, 0, 0) for the empty list."""
    return (len(R) - 1, abs(R[-1]), abs(R[0]), sum(map(abs, R))) if R else (-1, 0, 0, 0)


def _subtract_window(R, P, o, c):
    """R - c q^o P, P[0] landing at R[o], as a list from index min(o, 0)."""
    lo = min(o, 0)
    out = [0] * -lo + R + [0] * max(o + len(P) - len(R), 0)
    k = o - lo
    out[k:k + len(P)] = map(sub, out[k:k + len(P)], map(c.__mul__, P))
    return out


def _trimmed(xs):
    """(i, xs[i:j]) for the first nonzero entry i and the last j - 1 of xs;
    (0, []) when every entry is zero."""
    i, j = 0, len(xs)
    while i < j and not xs[i]:
        i += 1
    while j > i and not xs[j - 1]:
        j -= 1
    return (i, xs[i:j]) if i < j else (0, [])


def laurent_smith_attempt(M, max_steps=10000, transforms=True):
    """Heuristic Smith reduction over Z[q, q^-1]: unit-normalize the rows,
    then run the shared elimination with centered reductions
    (`_laurent_reduce`: exact division, degree reduction and
    integer-content reduction); succeed with a divisibility-chained
    diagonal, or stop with a blocking 2x2 pair, or give up at the step
    limit.  A blocking pair is no proof that M has no Smith form over
    Z[q, q^-1]: reports read both failures as "inconclusive".  With
    transforms=False the witness transforms L, R are not built; the
    outcome, diagonal, witness, residual and iteration count do not depend
    on them."""
    if M.ring != "laurent":
        M = M.map_ring("laurent", LaurentPoly.coerce)
    ring = ring_adapter("laurent")
    ws = _Workspace(M, transforms)
    for i, row in enumerate(M.entries):
        lead = next((x for x in row if not x.is_zero()), ring.one)
        u = ring.unit_and_normal(lead)[0]
        if u != ring.one:
            ws.scale_row(i, u)
    failure = _smith(ws, max_steps)
    L, R = ws.transforms()
    if failure is None:
        form = SmithForm("laurent", (M.rows, M.cols), ws.diagonal(), L, R)
        return NormalFormAttempt("success", smith=form, iterations=ws.ops)
    outcome, pair, k = failure
    witness = None if pair is None else tuple(x.normal() for x in pair)
    residual = ExactMatrix.from_rows(ws.block(k), "laurent")
    return NormalFormAttempt(outcome, witness=witness, residual=residual,
                             left=L, right=R, iterations=ws.ops)


# ---------------------------------------------------------------------------
# cokernels and stable invariants


class CokernelDescriptor:
    """coker M = Z^free_rank + sum Z/f_i, torsion factors divisibility-chained."""

    def __init__(self, free_rank, torsion):
        self.free_rank = free_rank
        self.torsion = tuple(torsion)

    def __eq__(self, other):
        if not isinstance(other, CokernelDescriptor):
            return NotImplemented
        return (self.free_rank, self.torsion) == (other.free_rank, other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def order(self):
        """Number of elements when finite, None otherwise."""
        if self.free_rank:
            return None
        out = 1
        for f in self.torsion:
            out *= f
        return out

    def torsion_strings(self):
        """The decimal text of each torsion order, of any size."""
        return [_IntRing.to_str(f) for f in self.torsion]

    def group_str(self):
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion_strings())
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<coker {self.group_str()}>"


def cokernel_of(M):
    """Cokernel of an integer matrix: free rank = rows - rank, torsion =
    non-unit invariant factors (positive).  Builds no witness transforms:
    the diagonal is `_smith_diagonal`'s, finished modulo the determinant
    once the unit pivots run out if the block left is square and
    nonsingular, by plain elimination otherwise."""
    if M.ring != "z":
        raise DomainError("cokernel_of expects an integer matrix")
    inv = stable_invariants(M)
    return CokernelDescriptor(inv.free_rank, inv.factors)


class StableInvariants:
    """Normalized non-unit invariant factors plus cokernel free rank; two
    matrices are reported stably equivalent iff these match."""

    def __init__(self, ring, free_rank, factors):
        self.ring = ring
        self.free_rank = free_rank
        self.factors = tuple(factors)

    def factor_strings(self):
        ad = ring_adapter(self.ring)
        return tuple(ad.to_str(f) for f in self.factors)

    def __eq__(self, other):
        if not isinstance(other, StableInvariants):
            return NotImplemented
        return (self.free_rank, self.factors) == (other.free_rank, other.factors)

    def __hash__(self):
        return hash((self.free_rank, self.factors))

    def __repr__(self):
        return f"<StableInvariants free={self.free_rank} {list(self.factor_strings())}>"


def _normalize_factor(ad, d):
    """The canonical representative of a nonzero factor d (None for a unit):
    `ad.unit_and_normal`, except over Q[q], read modulo q-powers too, where
    it is the primitive integer form of d without its power of q."""
    if ad.tag == "qpoly":
        # d is nonzero; its q-power goes with its leading zero coefficients
        k = next(i for i, c in enumerate(d.coeffs) if c)
        f = RationalPoly(d.coeffs[k:]).primitive_integer_form()
        return None if f.degree() <= 0 else f
    return None if ad.is_unit(d) else ad.unit_and_normal(d)[1]


def stable_invariants(M):
    """Unit-free invariant description used for stable-equivalence checks:
    the Smith diagonal without witness transforms (`_smith_diagonal`) read
    through `_invariants`.  Over "qpoly" the rows are packed into integers
    as for `determinant`, +-1 pivots clear them down to a block without +-1
    entries, and only that block, read back as polynomials, is finished:
    from its determinantal divisors when it has at most two rows or
    columns, else by `_smith_diagonal` (`_packed_units`,
    `_packed_qpoly_invariants`)."""
    if M.ring == "qpoly":
        _, block, pivots, b, _, _ = _packed_units(M)
        return _packed_qpoly_invariants(M, block, pivots, b)
    return _invariants(M.ring, M.rows, _smith_diagonal(M))


def _invariants(ring, rows, diagonal):
    """The StableInvariants of a matrix with `rows` rows and Smith diagonal
    `diagonal` over `ring`, up to unit entries."""
    ad = ring_adapter(ring)
    nonzero = [d for d in diagonal if not ad.is_zero(d)]
    factors = []
    for d in nonzero:
        f = _normalize_factor(ad, d)
        if f is not None:
            factors.append(f)
    return StableInvariants(ring, rows - len(nonzero), factors)


# ---------------------------------------------------------------------------
# pivots, determinants, Pfaffians


def deleted_pivot(M, i, j):
    """Pivot at (i, j) (0-based) then delete row i and column j.  The pivot
    must divide every entry in its row and column; a unit pivot is first
    normalized to 1."""
    for name, k, n in (("i", i, M.rows), ("j", j, M.cols)):
        if type(k) is not int or not 0 <= k < n:
            raise DomainError(f"pivot index {name} must be an int in [0, {n}): {k!r}")
    ring = ring_adapter(M.ring)
    p = M[i, j]
    if ring.is_zero(p):
        raise DomainError(f"pivot entry ({i},{j}) is zero")
    grid = M.to_lists()
    if ring.is_unit(p):
        u = ring.unit_and_normal(p)[0]
        grid[i] = [u * x for x in grid[i]]
        p = grid[i][j]
    for jj in range(M.cols):
        if ring.try_div(grid[i][jj], p) is None:
            raise DomainError(
                f"pivot {ring.to_str(p)} does not divide row entry "
                f"({i},{jj}) = {ring.to_str(grid[i][jj])}"
            )
    for ii in range(M.rows):
        if ring.try_div(grid[ii][j], p) is None:
            raise DomainError(
                f"pivot {ring.to_str(p)} does not divide column entry "
                f"({ii},{j}) = {ring.to_str(grid[ii][j])}"
            )
    out = []
    for ii in range(M.rows):
        if ii == i:
            continue
        c = ring.try_div(grid[ii][j], p)
        row = []
        for jj in range(M.cols):
            if jj == j:
                continue
            row.append(grid[ii][jj] - c * grid[i][jj])
        out.append(row)
    return ExactMatrix(M.rows - 1, M.cols - 1, M.ring, out)


def _int_det(rows):
    """Determinant of a square integer matrix, given as row sequences (left
    as they are).  The +-1 pivots of `_unit_pivots` take it to a block
    without +-1 entries, and det is their sign times the dense finish
    `_int_bareiss` on that block: the two steps that every determinant
    runs, packed Laurent and Q[q] matrices through `_packed_units` and
    `_packed_det`.  A row or column that empties on the way stays in the
    block, where Bareiss reads det = 0, and a matrix with no +-1 entry goes
    to the finish as it is (the blocks of `_finish_modulo_det`)."""
    sign, block = _unit_pivots(rows, len(rows))
    return sign * _int_bareiss(block)


def _unit_pivots(rows, width):
    """Sparse elimination on +-1 pivots of an integer matrix, given as row
    sequences of `width` entries (left as they are), square or not:
    (sign, block), with block the rows left without +-1 entries, in their
    original order, restricted to the columns left, as dense lists.

    Rows are maps column -> nonzero entry, with the set of rows nonzero in
    each column.  The next pivot is a row of fewest nonzeros that has a +-1
    entry (a lazy heap keyed by current row length), at its +-1 in the
    column of fewest nonzeros, ties to the lowest index.  Each other row i
    of the pivot column c takes row_i -= (a_ic * p) row_r over the pivot
    row's nonzeros (1/p = p), so column c keeps only the pivot.  Every
    entry is then a minor of the input divided by a product of +-1 pivots,
    so nothing grows beyond Hadamard's bound, and the input is equivalent
    over Z to diag(+-1, ..., +-1, block).  For a square input, Laplace
    expansion along each pivot column gives det = sign * det(block), with
    sign the product of (-1)^(s + t) p over the pivots, s and t the
    positions of the pivot row and column among those still alive.

    A row or column that empties (a square input is then singular) stays
    in the block as a zero row or column.  A matrix with no +-1 entry is
    the block as it is."""
    n = len(rows)
    heap = [(width - row.count(0), i) for i, row in enumerate(rows) if 1 in row or -1 in row]
    if not heap:
        return 1, [list(row) for row in rows]
    heapify(heap)
    A = [{j: x for j, x in enumerate(row) if x} for row in rows]
    cols = [set() for _ in range(width)]
    for i, row in enumerate(A):
        for j in row:
            cols[j].add(i)
    live_rows, live_cols = list(range(n)), list(range(width))
    sign = 1
    while heap:
        length, r = heappop(heap)
        row_r = A[r]
        # a dead row, or an entry left behind by a later push
        if row_r is None or len(row_r) != length:
            continue
        units = [j for j, x in row_r.items() if x == 1 or x == -1]
        if not units:
            continue
        c = min(units, key=lambda j: (len(cols[j]), j))
        p = row_r[c]
        s, t = bisect_left(live_rows, r), bisect_left(live_cols, c)
        del live_rows[s], live_cols[t]
        sign *= -p if (s + t) & 1 else p
        A[r] = None
        for i in [i for i in cols[c] if i != r]:
            row_i = A[i]
            _add_multiple(row_i, -row_i[c] * p, row_r, not_, cols, i)
            if row_i:
                heappush(heap, (len(row_i), i))
        for j in row_r:
            cols[j].discard(r)
    return sign, [[A[i].get(j, 0) for j in live_cols] for i in live_rows]


def _int_bareiss(rows):
    """Determinant of a square integer matrix, given as a list of row lists
    that the elimination overwrites, by fraction-free (Bareiss) elimination:
    the dense finish of `_int_det`."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not rows[k][k]:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return 0
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        row_k = rows[k]
        pivot = row_k[k]
        cols = range(k + 1, n)
        for i in cols:
            row = rows[i]
            a_ik = row[k]
            for j in cols:
                b = row_k[j]
                # without the cross term a zero entry stays 0 * pivot / prev = 0
                # (Kasteleyn matrices are sparse, so most updates are skipped)
                if a_ik and b:
                    num = row[j] * pivot - a_ik * b
                elif row[j]:
                    num = row[j] * pivot
                else:
                    continue
                q, r = divmod(num, prev)
                if r:
                    raise ExactDivisionError("Bareiss division failed")
                row[j] = q
        prev = pivot
    d = rows[n - 1][n - 1]
    return -d if sign < 0 else d


def _pack_rows(rows, width):
    """(packed, b, shift) for a matrix of integer polynomials, given as rows
    of `width` entries, each a map exponent -> nonzero int, no row zero.

    Each row is shifted to start at q^0 (shift is the sum of the row
    shifts) and every entry is packed into one integer by the Kronecker
    codec of `rings`, its value at q = 2^b, so integer elimination on the
    packed rows runs the polynomial one at q = 2^b.  The shift packs every
    entry +-q^e, e the row's lowest exponent, to +-1, so such a unit stays
    a +-1 pivot.  The coefficients of a minor are its Fourier coefficients
    on |q| = 1, so each is at most the minor's largest absolute value
    there, which by Hadamard is at most the product of its rows' L2 norms;
    a row's norm at any such q is at most sqrt(sum_j ||a_ij||_1^2), which
    is at least 1 for a nonzero row.  So the product of those square roots
    over all nonzero rows (or columns) bounds every minor; b is the codec
    width for it, so every minor, the determinant and each entry left by
    +-1 pivots among them, is read back exactly by `_kronecker_unpack`,
    and a packed entry is +-1 only if its polynomial is."""
    shifts = []
    row_squares = []
    col_squares = [0] * width
    for row in rows:
        lo = None
        square = 0
        for j, t in enumerate(row):
            if t:
                m = min(t)
                if lo is None or m < lo:
                    lo = m
                s = sum(abs(c) for c in t.values()) ** 2
                square += s
                col_squares[j] += s
        shifts.append(lo)
        row_squares.append(square)
    b = _kronecker_width(isqrt(min(prod(row_squares), prod(filter(None, col_squares)))) + 1)
    packed = [[_kronecker_pack(t, b, lo) if t else 0 for t in row]
              for row, lo in zip(rows, shifts)]
    return packed, b, sum(shifts)


def determinant(M):
    """Exact determinant by the integer kernel `_int_det` (+-1 pivots on
    sparse rows, then fraction-free Bareiss elimination on the block left);
    Laurent and Q[q] entries go through Kronecker substitution, each Q[q]
    row cleared of its denominators first, into the same elimination
    (`_packed_units`, `_packed_det`), which `_det_and_qpoly_invariants`
    reads for the Q[q] invariants too."""
    if M.rows != M.cols:
        raise DomainError("determinant of a non-square matrix")
    if M.ring == "z":
        return _int_det(M.entries)
    return _packed_det(M.ring, _packed_units(M))


def _kronecker_rows(M):
    """(rows, scale): the rows of a "laurent", "qpoly" or "z" matrix as
    lists of maps exponent -> nonzero int.  Each Q[q] row is multiplied by
    the lcm of its denominators, and scale is the product of those
    multipliers (1 for the other rings)."""
    if M.ring == "laurent":
        return [[f._terms for f in row] for row in M.entries], 1
    if M.ring == "z":
        return [[{0: x} if x else {} for x in row] for row in M.entries], 1
    rows = []
    scale = 1
    for row in M.entries:
        s = math.lcm(*(c.denominator for f in row for c in f.coeffs))
        scale *= s
        rows.append([{e: int(c * s) for e, c in enumerate(f.coeffs) if c} for f in row])
    return rows, scale


def _ring_value(ring, terms, scale=1):
    """The element of "laurent", "qpoly" or "z" whose terms, multiplied by
    `scale`, are `terms`, a map exponent -> nonzero int.  The determinant
    of the rows of `_kronecker_rows` is det M times their scale."""
    if ring == "laurent":
        return LaurentPoly._from_terms(terms)
    if ring == "z":
        return terms.get(0, 0)
    coeffs = [0] * (max(terms) + 1 if terms else 0)
    for e, c in terms.items():
        q, r = divmod(c, scale)
        coeffs[e] = Fraction(c, scale) if r else q
    return RationalPoly._trimmed(coeffs)


def _packed_units(M):
    """The +-1 elimination `_unit_pivots` of a "laurent", "qpoly" or "z"
    matrix M packed by `_pack_rows`:
    (sign, block, pivots, b, shift, scale).  Zero rows are left out of the
    packing (sign is then 0), so only the `pivots` +-1 pivots and the block
    of packed entries left (its rows and columns those of M that took no
    pivot, less the zero rows) stand for M."""
    rows, scale = _kronecker_rows(M)
    nonzero = [row for row in rows if any(row)]
    packed, b, shift = _pack_rows(nonzero, M.cols)
    sign, block = _unit_pivots(packed, M.cols)
    if len(nonzero) < M.rows:
        sign = 0
    return sign, block, len(nonzero) - len(block), b, shift, scale


def _packed_det(ring, packing):
    """det M over `ring` from `packing`, the `_packed_units` elimination of a
    square M: the sign of its +-1 pivots times Bareiss on the block left
    (which it overwrites), read back from q = 2^b; 0 when M has a zero row."""
    sign, block, _, b, shift, scale = packing
    value = sign * _int_bareiss(block) if sign else 0
    return _ring_value(ring, _kronecker_unpack(value, b, shift), scale)


def _packed_qpoly_invariants(M, block, pivots, b):
    """The Q[q] stable invariants of M from its `_packed_units` block: the
    +-1 pivots are units, so M is equivalent over Q[q, q^-1] to
    diag(1, ..., 1, B) and the zero rows, B the block read back as
    polynomials.  A block with at most two rows or at most two columns
    has at most two determinantal divisors and is finished from them
    (`_thin_qpoly_diagonal`); any other goes to `_smith_diagonal`.
    Clearing denominators scales rows by rationals and the packing shifts
    rows by powers of q, both unit changes over Q[q, q^-1], and
    `_normalize_factor` reads each factor modulo q-powers and rational
    content, so the invariants are those of M over Q[q]."""
    rows = [[_ring_value("qpoly", _kronecker_unpack(x, b, 0)) for x in row] for row in block]
    cols = M.cols - pivots
    if min(len(rows), cols) <= 2:
        diagonal = _thin_qpoly_diagonal(rows)
    else:
        diagonal = _smith_diagonal(ExactMatrix._of_ring_elements(len(rows), cols, "qpoly", rows))
    return _invariants("qpoly", M.rows - pivots, diagonal)


def _thin_qpoly_diagonal(rows):
    """The nonzero Smith diagonal, up to units, of a Q[q] matrix with at
    most two rows or at most two columns, given as row lists: over a PID
    s_1 = d_1 and s_2 = d_2 / d_1, d_k the gcd of the k x k minors, and
    d_2 = 0 when the rank is below 2."""
    if len(rows) > 2:
        rows = list(zip(*rows))
    d1 = _running_gcd(x for row in rows for x in row)
    if d1.is_zero():
        return []
    if len(rows) < 2:
        return [d1]
    top, bottom = rows
    d2 = _running_gcd(top[i] * bottom[j] - top[j] * bottom[i]
                      for i, j in combinations(range(len(top)), 2))
    return [d1] if d2.is_zero() else [d1, d2.divide(d1)]


def _running_gcd(elements):
    """The gcd over Q[q], up to a unit, of the nonzero RationalPolys among
    `elements` (zero if there is none).  It stops at the first nonzero
    constant, a unit, without reading the rest."""
    g = RationalPoly.zero()
    for x in elements:
        if x.is_zero():
            continue
        g = x if g.is_zero() else g.gcd(x)
        if g.degree() == 0:
            break
    return g


def _det_and_qpoly_invariants(M):
    """(determinant(M), stable_invariants(M.to_qpoly())) for a square
    "laurent", "qpoly" or "z" matrix M, from one packed elimination
    (`_packed_units`): det is the sign of its +-1 pivots times Bareiss on
    the block left, and the invariants finish that block alone, from its
    determinantal divisors or by the Smith elimination
    (`_packed_qpoly_invariants`).  A Laurent M with negative
    exponents has no Q[q] image; its invariants are then read over
    Q[q, q^-1], modulo q-powers, like any other."""
    if M.rows != M.cols:
        raise DomainError("determinant of a non-square matrix")
    packing = _packed_units(M)
    _, block, pivots, b, _, _ = packing
    # the invariants read the block before Bareiss overwrites it
    inv = _packed_qpoly_invariants(M, block, pivots, b)
    return _packed_det(M.ring, packing), inv


def pfaffian(M):
    """Exact Pfaffian of an alternating integer matrix: det B times the
    product of the block entries of the congruence elimination
    `_alternating_blocks`, run without its transform."""
    if M.rows != M.cols:
        raise DomainError("pfaffian of a non-square matrix")
    if M.rows % 2 == 1:
        raise DomainError("pfaffian needs even dimension")
    if M.ring != "z":
        raise DomainError("pfaffian implemented over the integers only")
    if not M.is_alternating():
        raise DomainError("pfaffian of a non-alternating matrix")
    entries, det = _alternating_blocks(_Workspace(M, transforms=False))
    return det * prod(entries)


# ---------------------------------------------------------------------------
# Fourier duality matrix (the sole floating-point surface)


# the largest |det M| whose |det M| x |det M| Fourier matrix is built
_FOURIER_GUARD = 64


def fourier_duality_matrix(M):
    """The discrete-Fourier unitary between coker M and coker M^T for a
    nonsingular integer matrix: U[x, y] = exp(2 pi i Y^T M^-1 X) / sqrt(|det M|)
    over coset representatives X of coker M and Y of coker M^T.

    Both are taken in Smith coordinates.  With L M R = diag(d_1, ..., d_n),
    r, s run over prod range(d_i) in mixed radix (rows and columns in that
    order), X = L^-1 r and Y = (R^-1)^T s.  Since R^-1 M^-1 L^-1 = diag(1/d_i),
    Y^T M^-1 X = sum r_i s_i / d_i, and only the factors d_i > 1 contribute.
    Every d_i divides the last factor e, so the phase is k / e with
    k = sum r_i s_i (e / d_i) mod e, and each entry is one of the e values
    exp(2 pi i k / e) / sqrt(|det M|).  Only the Smith diagonal is computed,
    never L or R, and |det M| is its product: no determinant runs apart."""
    if M.ring != "z":
        raise DomainError("fourier duality needs an integer matrix")
    if M.rows != M.cols:
        raise DomainError("fourier duality needs a square matrix")
    diagonal = _smith_diagonal(M)
    D = abs(prod(diagonal))
    if D == 0:
        raise DomainError("fourier duality needs a nonsingular matrix")
    if D > _FOURIER_GUARD:
        raise GuardExceeded(
            f"|det| = {D} exceeds the cokernel enumeration guard {_FOURIER_GUARD}")
    ds = [d for d in diagonal if d > 1]
    e = ds[-1] if ds else 1
    scale = 1.0 / math.sqrt(D)
    # int / int rounds correctly, so these are the floats of the fractions k/e
    phases = [cmath.exp(2j * math.pi * (k / e)) * scale for k in range(e)]
    weights = [e // d for d in ds]
    reps = list(product(*map(range, ds)))
    U = []
    for r in reps:
        w = list(map(mul, r, weights))
        U.append([phases[sum(map(mul, w, s)) % e] for s in reps])
    return U


def unitarity_defect(U):
    """max |(U U* - I)[i][j]| for a square complex matrix given as lists."""
    n = len(U)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            acc = sum(U[i][k] * U[j][k].conjugate() for k in range(n))
            target = 1.0 if i == j else 0.0
            worst = max(worst, abs(acc - target))
    return worst


# ---------------------------------------------------------------------------
# JSON report


def smith_report(M, include_transforms=False):
    """SmithForm / cokernel JSON-ready report.  Witness transforms are built
    only for include_transforms, and the invariants are read off that same
    form; otherwise `stable_invariants` alone runs."""
    if include_transforms:
        form = smith_normal_form(M)
        inv = _invariants(M.ring, M.rows, form.diagonal)
    else:
        inv = stable_invariants(M)
    ad = ring_adapter(M.ring)
    report = {
        "schema_version": 1,
        "ring": M.ring,
        "rows": M.rows,
        "cols": M.cols,
        "free_rank": inv.free_rank,
        "invariant_factors": list(inv.factor_strings()),
        "witnesses_included": include_transforms,
    }
    if include_transforms:
        report["left"] = [_entry_texts(ad, row) for row in form.left.entries]
        report["right"] = [_entry_texts(ad, row) for row in form.right.entries]
    return report
