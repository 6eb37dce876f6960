"""Exact-arithmetic mirror oracle of pairwise sensitivity, shared by the
sensitivity tests and acceptance check 4.

It mirrors the library's floating-point contract independently: each
difference (and square) is one IEEE-rounded operation, L2 differences
are first scaled by 2**-e (e the exponent of the largest) and the root
scaled back, the sum is exact rational arithmetic rounded once at the
end (what fsum guarantees), and sqrt is the correctly rounded
math.sqrt. Agreement must be bit-for-bit, not approximate.
"""
import math
from fractions import Fraction

from privseq.sensitivity import DIFFERENCE


def oracle_lw(x, y, w):
    diffs = [abs(float(a) - float(b)) for a, b in zip(x, y)]
    if w == 1:
        total = sum((Fraction(d) for d in diffs), Fraction(0))
        return float(total)
    e = math.frexp(max(diffs, default=0.0))[1]
    scaled = [math.ldexp(d, -e) for d in diffs]
    total = sum((Fraction(s * s) for s in scaled), Fraction(0))
    return math.ldexp(math.sqrt(float(total)), e)


def oracle_pad(group):
    n = max(len(v) for v in group)
    return [list(v) + [0.0] * (n - len(v)) for v in group]


def oracle_feature(group, w):
    rows = oracle_pad(group)
    best = 0.0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = oracle_lw(rows[i], rows[j], w)
            if d > best:
                best = d
    return best


def oracle_diff(row):
    out = [row[0]]
    for i in range(1, len(row)):
        out.append(row[i] - row[i - 1])
    return out


def oracle_chunks(group, plan, w, domain):
    rows = oracle_pad(group)
    out = []
    for s, e in plan.boundaries:
        sub = [r[s:e] for r in rows]
        if domain == DIFFERENCE:
            sub = [oracle_diff(r) for r in sub]
        out.append(oracle_feature(sub, w))
    return out
