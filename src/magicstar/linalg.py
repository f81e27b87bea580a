"""Exact rational scalars, signed-permutation matrices and row reduction.

All arithmetic is exact, so nothing here ever rounds.  The solver and
the packed kernels take Python-int numerators over one shared positive
denominator; :func:`lift` puts rationals into that form, and results
that are not integral come back as `fractions.Fraction`.

``MonomialMatrix`` is the one matrix kind: a signed permutation (exactly
one entry, +1 or -1, per row and per column), the form in which a gamma is
materialized on demand.  A gamma is held as its Pauli label (s, a, b) of
s X^a Z^b (see ``clifford``), and ``_reader`` over ``_signed`` columns is
the one implementation of vector arithmetic over a label: a Pauli string
applied to a vector is one ``itemgetter`` gather from the vector and its
negation, with no arithmetic; a bilinear is that gather and one dot
product.
``RowReducer`` is the one solver: incremental fraction-free row reduction
on ints that turns an inconsistent row into a certificate.
``lane_sums`` is the one packed multiply-add: it holds each int vector as
one Python int with a signed lane per entry (``pack_lanes``), so a scalar
multiply-add of a whole vector is one big-int operation; a sum of terms,
each with its own rows and vectors, goes into one packed sum per row.  The
caller's bound on the entries picks the lanes: 32 bits below 2^31, 64 bits
below ``LANE_LIMIT``, and past that it sums entry by entry.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul, neg
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple


Vector = List[Q]


def rat_str(x: Q) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1; an
    int is taken as it is, without building a Fraction.

    A part longer than the interpreter's limit for int-to-decimal
    conversion is refused with a ValueError naming its digit count."""
    if type(x) is not int:
        x = Q(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)
    except ValueError:
        digits = max(_decimal_digits(x.numerator), _decimal_digits(x.denominator))
        raise ValueError(
            "a value of %d decimal digits is over the output limit of %d digits"
            % (digits, sys.get_int_max_str_digits())
        ) from None


def _decimal_digits(k: int) -> int:
    """Decimal digits of |k|, without converting it to a string."""
    k = abs(k)
    # |k| >= 2^(bits - 1), so this estimate is at most the digit count
    d = max(1, int((k.bit_length() - 1) * 0.30102999566398120) - 1)
    while 10 ** d <= k:
        d += 1
    return d


def int_text(text: str) -> str:
    """``text`` as it is, when ``int`` may read it: text with more decimal
    digits than the interpreter's limit for str-to-int conversion is
    refused with a ValueError naming its digit count, before ``int`` would
    refuse it with advice on raising the limit."""
    limit = sys.get_int_max_str_digits()
    digits = sum(map(str.isdigit, text))
    if limit and digits > limit:
        raise ValueError("a value of %d decimal digits is over the input limit of %d digits" % (digits, limit))
    return text


# "p" or "p/q" in decimal digits, q nonzero
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def rat_parse(s) -> Q:
    """Inverse of :func:`rat_str`; also takes an int.  Anything else --
    floats, booleans, exponents, a zero denominator -- raises ValueError
    before any number is built."""
    if type(s) is int:
        return Q(s)
    if not (isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise ValueError("not an int or a p/q string: %.40r" % (s,))
    return Q(s)


def lift(xs: Sequence) -> Tuple[List[int], int]:
    """Int numerators of the rationals ``xs`` over one shared positive
    denominator, the lcm of theirs: ``xs[i] == nums[i] / den``."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


# ---------------------------------------------------------------------------
# monomial (signed permutation) matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialMatrix:
    """Signed permutation: column c holds ``signs[c]`` at row ``rows[c]``."""

    dim: int
    rows: Tuple[int, ...]
    signs: Tuple[int, ...]

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if len(self.rows) != self.dim or len(self.signs) != self.dim:
            raise ValueError("column map does not cover every column")
        if sorted(self.rows) != list(range(self.dim)):
            raise ValueError("row indices must form a permutation")
        if not set(self.signs) <= {1, -1}:
            raise ValueError("monomial entries restricted to +1/-1")


def _sign(x: int) -> int:
    """(-1)^popcount(x)."""
    return -1 if x.bit_count() & 1 else 1


def _signed(v: Sequence[int]) -> list:
    """v followed by its negation: the column every reader gathers from."""
    return [*v, *map(neg, v)]


def _reader(label: Tuple[int, int, int], cols, index: list, pos=None, flip=1) -> Callable[[list], tuple]:
    """_signed(v) -> flip * (m^T v) at ``cols`` for m = s X^a Z^b, the
    ``label`` (s, a, b): v[c ^ a], with v indexed through ``pos`` when
    given, read from the negated half where flip * s * (-1)^popcount(c & b)
    is -1.  One gather, no arithmetic.  Positions are taken from ``index``,
    list(range(2 k)) for v of length k, so readers share their int objects."""
    s, a, b = label
    n = len(index) // 2 if pos is None else len(pos)
    return itemgetter(*(
        index[(c ^ a if pos is None else pos[c ^ a]) + (n if flip * s != _sign(c & b) else 0)]
        for c in cols
    ))


# ---------------------------------------------------------------------------
# packed 32- or 64-bit lanes
# ---------------------------------------------------------------------------

# A lane of w bits holds an int in [-2^(w-1), 2^(w-1)); a sum of packed
# vectors whose every lane stays below 2^(w-1) in magnitude unpacks to the
# lane-wise sum.  64-bit lanes reach LANE_LIMIT; a bound below 2^31 takes
# 32-bit lanes, half the digits per multiply-add.
LANE_LIMIT = 2 ** 63

# typecode by item width in bits; the 32-bit one is whichever C int is 4 bytes
_TYPECODES = {32: next(t for t in "il" if array(t).itemsize == 4), 64: "q"}

_BIG_ENDIAN = sys.byteorder == "big"


@lru_cache(maxsize=32)
def _lane_bias(n: int, bits: int = 64) -> int:
    """The top bit of each of n lanes: sum over k of 2^(bits-1) * 2^(bits k)."""
    return int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * n, "little")


def pack_lanes(values: Sequence[int], bits: int = 64) -> int:
    """sum over k of values[k] * 2^(bits k), for ints in [-2^(bits-1),
    2^(bits-1)) and ``bits`` 32 or 64.

    The bytes of an ``array`` of that item width read as one unsigned int
    hold each negative lane as its two's complement, v + 2^bits.  Flipping
    every top bit adds 2^(bits-1) to each lane and leaves no lane negative;
    subtracting the same bias then leaves the signed sum.  A value out of
    range raises OverflowError.
    """
    lanes = array(_TYPECODES[bits], values)
    if _BIG_ENDIAN:
        lanes.byteswap()
    bias = _lane_bias(len(lanes), bits)
    return (int.from_bytes(lanes.tobytes(), "little") ^ bias) - bias


def unpack_lanes(packed: int, n: int, bits: int = 64) -> array:
    """The n lanes of ``packed`` as an ``array`` of ``bits``-bit items: the
    inverse of :func:`pack_lanes` whenever every lane lies in
    [-2^(bits-1), 2^(bits-1))."""
    bias = _lane_bias(n, bits)
    lanes = array(_TYPECODES[bits])
    lanes.frombytes(((packed + bias) ^ bias).to_bytes(bits // 8 * n, "little"))
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes


def lane_sums(terms: Iterable[Tuple[Iterable, Iterable, Optional[dict]]], bound: int) -> Iterator:
    """Per output row i, lazily: ``_signed`` of the sum over the terms
    (rows, vectors, held) of sum over k of rows[i][k] * vectors[k].  Every
    term has one entry in ``rows`` per output row: one int coefficient per
    vector, or None where the term adds nothing to that row.  A term's
    vectors, a nonempty iterable of int sequences, share one width with
    every other term's.  ``bound`` is the caller's bound on every |entry|
    of the vectors and of the summed rows.  Below 2^31 the lanes are 32
    bits wide, below ``LANE_LIMIT`` 64: each vector is packed once, each
    rows[i][k] is one big-int multiply-add into row i's packed sum, and a
    row sum s is one unpack of s - (s << bits * width), the lanes of s
    then of -s, none of which can carry into its neighbour.  At or past
    ``LANE_LIMIT``, ``_entry_sums`` takes over.  The terms are taken one
    at a time, so one term's packs are alive at once: all but the last
    are summed into a list of row sums, and the last term's rows are read,
    finished and unpacked one at a time.

    ``held``, a dict or None, keeps that term's packed vectors by lane
    width for a caller that sums the same vectors again: passed back with
    them, the vectors are neither read nor packed a second time."""
    bits = 32 if bound < 2 ** 31 else 64 if bound < LANE_LIMIT else 0
    if not bits:
        yield from _entry_sums(terms)
        return
    terms = iter(terms)
    term, sums = next(terms), None
    while term is not None:
        rows, vectors, held = term
        width, packed = _packs(vectors, bits, held)
        part = map(_row_sum, rows, repeat(packed))
        if sums is not None:
            part = map(add, sums, part)
        term = next(terms, None)
        if term is not None:
            sums = list(part)
            del part, packed  # before the next term's packs are made
    for s in part:
        yield unpack_lanes(s - (s << bits * width), 2 * width, bits)


def _packs(vectors: Iterable, bits: int, held: Optional[dict]) -> Tuple[int, list]:
    """(width, packed vectors) of one term, taken from ``held`` when it
    has them at ``bits`` and kept there when it is a dict."""
    kept = None if held is None else held.get(bits)
    if kept is None:
        vectors = iter(vectors)
        first = next(vectors)
        kept = len(first), [pack_lanes(first, bits), *(pack_lanes(v, bits) for v in vectors)]
        if held is not None:
            held[bits] = kept
    return kept


def _row_sum(r: Optional[Sequence[int]], packed: list) -> int:
    return 0 if r is None else sum(map(mul, r, packed))


def _entry_sums(terms: Iterable[Tuple[Iterable, Iterable, Optional[dict]]]) -> Iterator[list]:
    """``lane_sums`` entry by entry, exact for ints of any size: row i of
    every term is read together, the vectors of all terms at hand."""
    terms = [(rows, list(vectors)) for rows, vectors, _ in terms]
    width = len(terms[0][1][0])
    for parts in zip(*(rows for rows, _ in terms)):
        acc = [0] * width
        for r, (_, vectors) in zip(parts, terms):
            if r is not None:
                for c, v in zip(compress(r, r), compress(vectors, r)):
                    acc = list(map(add, acc, map(c.__mul__, v)))
        yield _signed(acc)


# ---------------------------------------------------------------------------
# exact linear solving
# ---------------------------------------------------------------------------

class RowReducer:
    """Incremental exact row echelon form on ints, with row provenance.

    Rows are fed one at a time; the reducer keeps pivot rows only, each a
    primitive int row with the combination of fed rows that produced it.
    A fed row is eliminated fraction-free (Bareiss, 1968): it is
    cross-multiplied with each pivot's lead, and its provenance is built
    only when the row becomes a pivot or a certificate.  Feeding a row that
    reduces to 0 = nonzero yields an infeasibility certificate.  The
    pivot-origin rows are independent, so a certificate with coefficient 1
    at the new row, and the solution with the free variables at 0, are the
    unique ones: reduction over Fractions gives the same.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        # (column, int row, int rhs, {fed row: coefficient}), by column
        self.pivots: List[Tuple[int, List[int], int, dict]] = []
        self.nrows = 0

    def add_row(self, coeffs: Sequence[int], rhs: int, den: int = 1) -> Optional[dict]:
        """Add the equation ``coeffs . x = rhs``, int numerators on each side
        over one positive ``den``; a row with any other entry is refused
        before it is counted.  Returns a certificate dict {row index:
        Fraction} with coefficient 1 at this row if the row exposes
        infeasibility, else None."""
        row, r = list(coeffs), rhs
        if len(row) != self.ncols:
            raise ValueError("row has %d entries, expected %d" % (len(row), self.ncols))
        if not all(type(x) is int for x in row) or type(r) is not int:
            raise TypeError("row entries must be ints; lift rationals with linalg.lift")
        new = self.nrows
        self.nrows += 1
        steps = []
        for i, (col, prow, prhs, _) in enumerate(self.pivots):
            f = row[col]
            if f:
                g = gcd(prow[col], f)
                a, b = prow[col] // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                r = a * r - b * prhs
                steps.append((i, a, b))
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None and r == 0:
            return None
        # the reduced row as a combination of the fed rows: den times this
        # one, then each step's a times the row less b times the pivot
        prov = {new: Q(den)}
        for i, a, b in steps:
            prov = {k: a * v for k, v in prov.items()}
            for k, v in self.pivots[i][3].items():
                prov[k] = prov.get(k, 0) - b * v
        if lead is None:
            own = prov[new]
            return {k: v / own for k, v in prov.items() if v}
        g = gcd(*row, r)
        if row[lead] < 0:
            g = -g
        pivot = (lead, [x // g for x in row], r // g, {k: v / g for k, v in prov.items() if v})
        insort(self.pivots, pivot, key=itemgetter(0))
        return None

    def rank(self) -> int:
        return len(self.pivots)

    def solution(self) -> Vector:
        """Particular solution with free variables set to zero, by one
        back-substitution over the pivots."""
        x = [Q(0)] * self.ncols
        for col, row, rhs, _ in reversed(self.pivots):
            x[col] = (rhs - sum(map(mul, row[col + 1:], x[col + 1:]), Q(0))) / row[col]
        return x
