#!/usr/bin/env python3
"""Compare the truncated susceptibility sum with a central finite
difference across a range of shear strengths on the torus family.

Usage: python scripts/response_scan.py [--alphas 0.1 0.25 0.5] [--length N]
"""
import argparse

from srblab import config, maps, measure, response, stats


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alphas", type=float, nargs="+",
                    default=[0.1, 0.25, 0.5])
    ap.add_argument("--length", type=int, default=50_000)
    ap.add_argument("--ensemble", type=int, default=16)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--h", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    defaults = config.DEFAULTS
    fam = maps.get_family("cat_shear")
    phi = maps.get_observable("bump", 2)
    print(f"{'alpha':>6} {'Psi(1)':>12} {'err':>9} {'FD':>12} {'err':>9} "
          f"{'sigma':>6} {'radius':>8}  flag")
    for alpha in args.alphas:
        emp = measure.srb_sample(fam, alpha, transient=500,
                                 length=args.length, ensemble=args.ensemble,
                                 seed=args.seed)
        split = response.stable_unstable_split(
            emp, phi, args.n_max, defaults["clv"]["warmup"],
            defaults["split"]["angle_threshold"])
        ser = split.combined()
        psi, perr = ser.truncated_sum()
        deriv, deriv_err = response.finite_difference_response(
            fam, alpha, args.h, phi, seed=args.seed + 72, transient=500,
            length=args.length, ensemble=2 * args.ensemble)
        sigma = stats.sigma_units(psi - deriv, perr, deriv_err)
        est = response.radius_estimate(ser, defaults["radius"]["method"])
        print(f"{alpha:>6.2f} {psi:>12.3e} {perr:>9.1e} "
              f"{deriv:>12.3e} {deriv_err:>9.1e} {sigma:>6.2f} "
              f"{est.value:>8.2f}  {est.flag}")


if __name__ == "__main__":
    main()
