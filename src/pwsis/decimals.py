"""Decimal text to float64, bit-identical to float(), through integer
mantissas.

A token [sign]digits.digits of at most 18 significant digits is an integer
mantissa M < 10^18 over 10^f, f its digits after the dot.  numpy's integer
parser reads the mantissas of a piece of text with the dots dropped, and
each is divided once by 10^f in np.longdouble.  Where that type is x87
extended precision (x86-64), M and 10^f are exact in its 64-bit
significand, so the quotient is rounded once: Clinger's exact fast path
(How to Read Floating Point Numbers Accurately, PLDI 1990), widened from 53
to 64 bits.  Rounding it on to a double gives float()'s bits unless it sits
exactly halfway between two doubles (Figueroa, When is double rounding
innocuous?, SIGNUM 1995), about one token in 2048; float() reads those, and
the tokens with an exponent or more digits, from their own text.  Whether
np.longdouble rounds so is checked once, on the first read; elsewhere every
piece is left to numpy's float parser.
"""

import functools
import warnings

import numpy as np


# A token of at most this many significant digits reads as an exact int64
# mantissa: 10^18 < 2^63, and numpy's integer parser saturates at 2^63 - 1
# silently.  Up to _MAX_ZEROS leading zeros may come on top (the repr of a
# double in [0.0001, 0.1) starts 0.0), so at most 27 digits follow the dot,
# and 10^27 = 5^27 2^27 with 5^27 < 2^63 is exact in np.longdouble.
_MAX_DIGITS = 18
_MAX_ZEROS = 9
# A piece in which more than one token in this many needs float() on its
# own (an exponent or too many digits) is left to numpy's float parser.
_ODD_SHARE = 16
# Tokens of the platform check.  The 64-bit quotients of the first three,
# of 9007199254740993.0 and of 18014398509481990.0 sit exactly halfway
# between two doubles; for the first three, rounding that on to a double
# differs from float().
_PROBES = ("4.55958909220645614", "9.87362539127869443", ".000000000996080351959416693",
           "4.55958909220645613", "9.87362539127869444", ".000000000996080351959416692",
           "9007199254740993.0", "9007199254740993.1", "18014398509481990.0",
           "123456789012345678.", ".000000000000000001", "-1.4177008800288051",
           "0.16426293761673394", "0.1")


def _quotients(q, f, P):
    """q / 10^f for mantissas 0 <= q < 10^18 held as np.longdouble (which
    is divided in place) and 0 <= f <= 27, each rounded once to its 64-bit
    significand (both operands are exact there: Clinger's exact fast path,
    widened to 64 bits) and then to float64; and whether the first rounding
    sits exactly halfway between two doubles, the one case in which the
    second rounding may differ from rounding q / 10^f once (Figueroa
    1995)."""
    q /= P[f]
    # x87 extended precision keeps its 64-bit significand in the low 8
    # bytes; every quotient here is a normal double, whose midpoints end
    # in 0x400 there
    halfway = (q.view(np.uint64)[0::2] & 0x7FF) == 0x400
    return q.astype(np.float64), halfway


@functools.lru_cache(maxsize=None)
def _powers_of_ten():
    """10^0 ... 10^27 as np.longdouble, if it has a 64-bit significand and
    _parse_piece reads every token of _PROBES as float() does; None on any
    other platform (np.longdouble may be a double, or of another layout),
    whose reads keep numpy's float parser.  Decided on the first read, not
    at import."""
    if np.finfo(np.longdouble).nmant != 63 or np.dtype(np.longdouble).itemsize != 16:
        return None
    f = np.arange(_MAX_DIGITS + _MAX_ZEROS + 1)
    P = np.ldexp(np.array([5 ** k for k in f.tolist()]).astype(np.longdouble), f)
    P.setflags(write=False)  # every read shares it
    piece = "".join("%s %s\n" % pair for pair in zip(_PROBES[0::2], _PROBES[1::2])).encode()
    b = np.frombuffer(piece, np.uint8)
    got = _parse_piece(piece, b, np.flatnonzero(b <= 32), P)
    want = np.array([float(t) for t in _PROBES])
    return P if got is not None and got.tobytes() == want.tobytes() else None


def parse(piece, b, sep):
    """The numbers of piece (bytes, and b the same bytes as a uint8 array),
    whose separators sep are single spaces and newlines, alternating and
    ending at its final newline, and whose other bytes are digits, '.',
    'e', 'E', '+' and '-'.  _parse_piece reads the piece whole; its
    temporaries take about three times the piece's bytes.  None leaves the
    piece to numpy's float parser: there is no 64-bit extended precision,
    or _parse_piece declined it.  ValueError for a token float() refuses."""
    P = _powers_of_ten()
    return None if P is None else _parse_piece(piece, b, sep, P)


def _parse_piece(piece, b, sep, P):
    """The numbers of a piece (see parse).  Each token [sign]digits.digits
    of at most _MAX_DIGITS significant digits is read by numpy's integer
    parser with its dot dropped, as a mantissa M over 10^f, f its digits
    after the dot, and _quotients divides by P[f].  float() reads the odd
    tokens (an exponent or more digits) and the halfway quotients from
    their own text, so every value has float()'s bits.  None declines the
    piece: too many odd tokens, a token of another shape, or an integer
    parse that errs, warns or miscounts."""
    n = len(sep)
    start = np.empty_like(sep)
    start[0] = 0
    start[1:] = sep[:-1] + 1
    lead = b[start]
    neg = lead == 45
    signed = neg | (lead == 43)
    digits = sep - start
    digits -= signed
    digits -= 1  # if the token holds one dot, checked below
    odd = np.zeros(n, dtype=bool)
    over = np.flatnonzero(digits > _MAX_DIGITS)
    if len(over):
        # safe if its first z + 1 bytes are zeros and the dot, for z the
        # digits over the bound: no more than _MAX_DIGITS are significant
        z = digits[over] - _MAX_DIGITS
        j = np.arange(_MAX_ZEROS + 1)
        head = b[(start[over] + signed[over])[:, None] + j]
        odd[over] = (z > _MAX_ZEROS) | np.any((head != 48) & (head != 46) & (j <= z[:, None]),
                                              axis=1)
    expo = []  # the few exponents, found at memchr speed
    for ch in b"eE":
        at = piece.find(ch)
        while at >= 0 and len(expo) * _ODD_SHARE <= n:
            expo.append(at)
            at = piece.find(ch, at + 1)
    odd[np.searchsorted(sep, expo)] = True
    fix = np.flatnonzero(odd)
    if len(fix) * _ODD_SHARE > n:
        return None
    signed[fix] = neg[fix] = False
    digits[fix] = sep[fix] - start[fix] - 1
    if digits.min() < 1:  # a token without a digit
        return None
    n_signed = np.count_nonzero(signed)
    text = piece
    if len(fix):
        # an odd token becomes 0...0. of its length, read as 0
        spans, at, view = [], 0, memoryview(piece)
        for a, e in zip(start[fix].tolist(), sep[fix].tolist()):
            spans += [view[at:a], b"0" * (e - a - 1), b"."]
            at = e
        spans.append(view[at:])
        text = b"".join(spans)
        b = np.frombuffer(text, np.uint8)
    dots = np.flatnonzero(b == 46)
    # sorted, n dots one per token, and no sign but the leading ones
    if (len(dots) != n or np.any(dots[1:] <= sep[:-1]) or np.any(dots >= sep)
            or np.count_nonzero(b == 43) + np.count_nonzero(b == 45) != n_signed):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            M = np.fromstring(text.translate(None, b".+-"), dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if len(M) != n:
        return None
    x, halfway = _quotients(M.astype(np.longdouble), sep - dots - 1, P)
    x = np.where(neg, -x, x)  # from the sign byte, so -0.0 stays
    for i in np.flatnonzero(halfway | odd).tolist():
        x[i] = float(piece[sep[i - 1] + 1 if i else 0:sep[i]])
    return x
