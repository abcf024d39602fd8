"""Build and refute the discriminant flagship at n roots, and time both.

The candidate is radform.corpus.discriminant_formula(n), which adjoins
the square root of the discriminant: p_0 is the sigma-form of the
squared Vandermonde product (symmetrize, with its full re-expansion
self-check), the witness is the Vandermonde product itself, and
p_1 = (sigma_1 + f_1) / 2.  This is the build the `diagnose` benchmark
repeats at n = 5.  Prints the build and refute seconds, the size of the
sigma-form and the process's peak resident set size.

    PYTHONPATH=src python scripts/flagship.py --n 6
"""

import argparse
import resource
import sys
import time

from radform.corpus import discriminant_formula
from radform.obstruction import run_ruffini


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=5, help="number of roots (at least 5)")
    args = parser.parse_args()
    n = args.n
    if n < 5:
        parser.error("the obstruction needs at least 5 roots")

    start = time.perf_counter()
    candidate = discriminant_formula(n)
    built = time.perf_counter()
    report = run_ruffini(candidate)
    refuted = time.perf_counter()

    # ru_maxrss is in KiB on Linux and in bytes on macOS
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    print(f"n = {n}: sigma-form of the discriminant has {len(candidate.ps[0].terms)} terms")
    print(f"build_s  {built - start:.3f}")
    print(f"refute_s {refuted - built:.3f}")
    print(f"peak_rss_mb {peak_mb:.1f}")
    print(report.verdict)
    if not report.refuted:
        sys.exit(1)


if __name__ == "__main__":
    main()
