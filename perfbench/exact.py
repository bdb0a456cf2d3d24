"""The benchmark's own exact arithmetic, independent of the package under test.

Matrices are flat row-major lists of raw scalars: ints in [0, p) over GF(p),
and ints or Fractions over the rationals (``p is None``).  Both the input
generator and the certificate checker use only these helpers, so inputs are
byte-identical on every commit and the checks share no code with quadsum.
"""

from __future__ import annotations

from fractions import Fraction


def parse(p, text: str):
    return int(text) % p if p is not None else Fraction(text)


def render(p, v) -> str:
    return str(v if p is not None else Fraction(v))


def mul(a, b, n: int, p):
    out = []
    for i in range(n):
        row = a[i * n:(i + 1) * n]
        for j in range(n):
            s = sum(row[t] * b[t * n + j] for t in range(n))
            out.append(s % p if p is not None else s)
    return out


def add(a, b, p):
    if p is None:
        return [x + y for x, y in zip(a, b)]
    return [(x + y) % p for x, y in zip(a, b)]


def inverse(a, n: int, p):
    """Gauss-Jordan inverse, or None when ``a`` is singular."""
    rows = [list(a[i * n:(i + 1) * n]) + [int(i == j) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return None
        rows[c], rows[pr] = rows[pr], rows[c]
        if p is None:
            inv = Fraction(1) / rows[c][c]
            rows[c] = [x * inv for x in rows[c]]
        else:
            inv = pow(rows[c][c], p - 2, p)
            rows[c] = [x * inv % p for x in rows[c]]
        for i in range(n):
            fac = rows[i][c]
            if i != c and fac:
                if p is None:
                    rows[i] = [x - fac * y for x, y in zip(rows[i], rows[c])]
                else:
                    rows[i] = [(x - fac * y) % p for x, y in zip(rows[i], rows[c])]
    return [rows[i][n + j] for i in range(n) for j in range(n)]


def is_idempotent_plus_square_zero(m, a, b, n: int, p) -> bool:
    """A + B = M, A^2 = A and B^2 = 0: the certificate law for params (1,0,0,0)."""
    return (add(a, b, p) == list(m) and mul(a, a, n, p) == list(a)
            and not any(mul(b, b, n, p)))
