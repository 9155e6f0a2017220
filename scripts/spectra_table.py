#!/usr/bin/env python3
"""Print Lyapunov spectra and dimension estimates for the built-in systems.

Usage: python scripts/spectra_table.py [--steps N] [--seed S]
"""
import argparse

from srblab import maps, measure, tangent
from srblab.errors import BasinEscapeError, HyperbolicityError

SYSTEMS = [("cat_translate", 0.1), ("cat_shear", 0.25), ("henon", 1.4),
           ("standard_map", 6.0), ("coupled_henon", 1.4)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(f"{'system':<15}{'alpha':>7}  exponents / d_s / Kaplan-Yorke")
    for name, alpha in SYSTEMS:
        fam = maps.get_family(name)
        try:
            emp = measure.srb_sample(fam, alpha, 2000, args.steps + 1, 1,
                                     args.seed, measure.default_sampler(fam))
        except BasinEscapeError:
            print(f"{name:<15}{alpha:>7.2f}  orbit escaped")
            continue
        spec = tangent.benettin_spectrum(emp, reorth_interval=8)
        lams = "  ".join(f"{v:+.4f}" for v in spec.all_exponents)
        try:
            dims = measure.dimension_estimates(spec)
            extra = f"d_s={dims.d_s:.3f} ({dims.method}), KY={dims.kaplan_yorke:.3f}"
        except HyperbolicityError:
            extra = "non-hyperbolic"
        print(f"{name:<15}{alpha:>7.2f}  [{lams}]  {extra}")


if __name__ == "__main__":
    main()
