#!/usr/bin/env python3
"""Tabulate Holder exponents of fold-convolved densities for a family of
transverse measures, against the predicted value (dimension - 1/2).

Usage: python scripts/fold_profiles.py [--grid N]   (N >= 1024)
"""
import argparse

import numpy as np

from srblab import tangency


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", type=int, default=8192)
    args = ap.parse_args()
    if args.grid < 2**10:
        ap.error("--grid must be at least 1024: the fold convolution needs "
                 "2^10 grid points")
    cases = [("uniform", tangency.make_sigma("uniform"))]
    for ratio in (1.0 / 3.0, 0.25, 0.4):
        cases.append((f"cantor r={ratio:.3f}",
                      tangency.make_sigma("cantor", ratio=ratio, level=13)))
    print(f"{'sigma':<16}{'dim':>7}{'predicted':>11}{'estimated':>11}"
          f"{'ci':>20}  flag")
    for label, sigma in cases:
        prof = tangency.synthetic_fold_convolution(sigma, args.grid,
                                                   side="one",
                                                   domain=(0.0, 1.0))
        est = tangency.holder_exponent(prof.values,
                                       prof.grid[1] - prof.grid[0])
        pred = sigma.dimension - 0.5
        ci = f"[{est.ci[0]:+.3f}, {est.ci[1]:+.3f}]"
        print(f"{label:<16}{sigma.dimension:>7.3f}{pred:>11.3f}"
              f"{est.exponent:>11.3f}{ci:>20}  {est.flag or '-'}")
    # a sub-threshold measure: the convolution maximum doubles per
    # construction level once the grid resolves it
    print("\nsub-threshold growth (cantor r=1/16, dim 1/4):")
    prev = None
    for level in (3, 4, 5):
        sig = tangency.make_sigma("cantor", ratio=1.0 / 16.0, level=level)
        mx = tangency.synthetic_fold_convolution(
            sig, 16**level, side="one", domain=(0.0, 1.0)).values.max()
        ratio = "" if prev is None else f"  ratio {mx / prev:.3f}"
        print(f"  level {level}: max {mx:10.4f}{ratio}")
        prev = mx


if __name__ == "__main__":
    main()
