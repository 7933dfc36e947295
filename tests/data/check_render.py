"""Check the scores renderer against ``repr`` on seeded float64 bit patterns.

Run from the repository root, with ``binfactor`` importable
(``pip install -e .`` or ``PYTHONPATH=src``):

    python tests/data/check_render.py            # 10^7 patterns, about 35 s
    python tests/data/check_render.py --count 1000000 --seed 5

Every pattern of 64 bits is equally likely, so the values span every
exponent, both signs, subnormals, infinities and nans.  The patterns are
rendered as one CSV column by ``render.csv_rows`` in chunks of 10^6 and
each chunk's bytes must equal the values' ``repr`` strings, one per line.
The script reports how many went to the ``repr`` fallback and exits 1 on
the first chunk that differs, naming its first differing values.
"""

import argparse
import sys

import numpy as np

from binfactor import render

CHUNK = 10**6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    slow = 0
    for start in range(0, args.count, CHUNK):
        values = rng.integers(0, 2**64, min(CHUNK, args.count - start), dtype=np.uint64).view(float)
        got = render.csv_rows([values])
        want = "".join(repr(v) + "\n" for v in values.tolist()).encode()
        if got != want:
            lines = zip(values.tolist(), got.split(b"\n"), want.split(b"\n"))
            bad = [(v, g, w) for v, g, w in lines if g != w][:5]
            print(f"patterns {start}-{start + len(values)}: renderer differs from repr: {bad}")
            return 1
        a = np.abs(values)
        fast = (a > render._LOW) & (a < render._HIGH)
        slow += int((~fast).sum()) + int(render._shortest(a[fast])[3].sum())
    print(f"{args.count} patterns match repr; {slow} went to the repr fallback")
    return 0


if __name__ == "__main__":
    sys.exit(main())
