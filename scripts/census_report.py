#!/usr/bin/env python3
"""Print the Frobenius census with the stable-tail summary.

For each rank n up to --max-n (default 16) the row of class counts by
central-arc number k is printed, followed by the values that have stopped
changing: the count at k = n-m is the same for every n >= 2m+1, so the last
row's tail predicts all later rows.

Usage:
  python3 scripts/census_report.py [--max-n 16]
"""

import argparse
import time

from meandre import frobenius_census
from meandre.io_render import census_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=16)
    args = parser.parse_args()

    started = time.time()
    rows = [frobenius_census(n) for n in range(1, args.max_n + 1)]
    print(census_table(rows))
    print(f"\ncomputed in {time.time() - started:.2f}s")

    last = rows[-1]
    print("\nstable tail counts (constant for every larger rank):")
    for m in range((last.n - 1) // 2 + 1):
        base = 2 * m + 1
        if base > last.n:
            break
        value = rows[base - 1].by_k[base - m - 1]
        settled = all(rows[n - 1].by_k[n - m - 1] == value for n in range(base, last.n + 1))
        marker = "" if settled else "  (NOT yet settled?)"
        print(f"  k = n-{m}: {value}{marker}")


if __name__ == "__main__":
    main()
