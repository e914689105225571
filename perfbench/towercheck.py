"""Cross-check of field towers against sympy.polys.galoistools.

Reads a JSON list on stdin, one entry per tower: p, m, the modulus
(little-endian) and samples [a, b, i, a*b, 1/a, a^(p^i), a+b] as the tower
computed them.  Prints a JSON list of the disagreements found.  It runs in
its own process so that sympy stays out of the benchmark's memory figures.
"""

import json
import sys

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_gcdex, gf_mul, gf_pow_mod, gf_rem


def to_poly(x, p, m):
    digits = []
    for _ in range(m):
        x, d = divmod(x, p)
        digits.append(d)
    while digits and digits[-1] == 0:
        digits.pop()
    return digits[::-1]  # galoistools lists the leading coefficient first


def from_poly(f, p):
    x = 0
    for c in f:
        x = x * p + int(c)
    return x


def main():
    problems = []
    for spec in json.load(sys.stdin):
        p, m = spec["p"], spec["m"]
        g = [int(c) for c in reversed(spec["modulus"])]
        for a, b, i, prod, inv, frob, total in spec["samples"]:
            fa, fb = to_poly(a, p, m), to_poly(b, p, m)
            s, _, h = gf_gcdex(fa, g, p, ZZ)
            want = {
                "mul": from_poly(gf_rem(gf_mul(fa, fb, p, ZZ), g, p, ZZ), p),
                "inv": from_poly(s, p) if h == [1] else None,
                "frobenius": from_poly(gf_pow_mod(fa, p**i, g, p, ZZ), p),
                "add": from_poly(gf_add(fa, fb, p, ZZ), p),
            }
            got = {"mul": prod, "inv": inv, "frobenius": frob, "add": total}
            for op, value in got.items():
                if want[op] != value:
                    problems.append(f"F_{p}^{m} {op}({a}, {b}, i={i}) = {value}, sympy gives {want[op]}")
    json.dump(problems, sys.stdout)


if __name__ == "__main__":
    main()
