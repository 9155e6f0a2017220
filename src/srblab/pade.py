"""Robust Pade approximants for power series resummation.

Follows the SVD-based degree-reduction strategy of Gonnet, Guettel and
Trefethen (SIAM Rev. 55, 2013): rank-deficient Toeplitz systems lower the
effective diagonal order (M, M) so that spurious pole/zero (Froissart) pairs
are removed at the linear-algebra level.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PadeDegeneracyError


@dataclass
class PadeApproximant:
    """Rational approximant p(z)/q(z), coefficients in ascending order."""

    numerator: np.ndarray
    denominator: np.ndarray

    def poles(self):
        b = np.trim_zeros(self.denominator, "b")
        scale = np.abs(b).max()
        # drop numerically-zero leading coefficients of the reversed poly
        bb = b.copy()
        while bb.size > 1 and abs(bb[-1]) < 1e-13 * scale:
            bb = bb[:-1]
        if bb.size < 2:
            return np.array([], dtype=complex)
        return np.roots(bb[::-1])

    def residues(self, poles):
        """Residues at `poles`, the roots of the denominator."""
        dq = np.polyder(self.denominator[::-1])
        res = []
        for p in poles:
            num = np.polyval(self.numerator[::-1], p)
            den = np.polyval(dq, p)
            res.append(num / den if den != 0 else np.inf)
        return np.array(res, dtype=complex)


def robust_pade(coeffs, M, tol):
    """(M, M) Pade approximant to sum coeffs[k] z^k with SVD rank reduction.

    Returns a PadeApproximant whose effective order may be lower than
    requested when the coefficient Toeplitz system is rank deficient.
    """
    c = np.asarray(coeffs, dtype=float)
    if M < 0:
        raise PadeDegeneracyError("the Pade order must be nonnegative")
    if c.size < 2 * M + 1:
        c = np.pad(c, (0, 2 * M + 1 - c.size))
    c = c[: 2 * M + 1]
    norm_c = np.linalg.norm(c)
    if norm_c == 0.0:
        return PadeApproximant(np.zeros(1), np.ones(1))
    ts = tol * norm_c
    if np.max(np.abs(c[: M + 1])) <= tol * np.max(np.abs(c)):
        return PadeApproximant(np.zeros(1), np.ones(1))
    while True:
        if M == 0:
            a = c[:1].copy()
            b = np.ones(1)
            break
        # rows M+1 .. 2M of the Toeplitz system Z b = 0
        Z = c[M + 1 + np.arange(M)[:, None] - np.arange(M + 1)]
        try:
            _, S, Vh = np.linalg.svd(Z)
        except np.linalg.LinAlgError as exc:
            raise PadeDegeneracyError(
                f"SVD failed for Pade order ({M},{M}); try smaller M") from exc
        rho = int(np.sum(S > ts))
        if rho == M:
            b = Vh[-1]
            break
        # rank deficiency: reduce both degrees and retry
        M = rho
    if M > 0:
        # drop leading near-zero denominator coefficients
        lead = 0
        bmax = np.abs(b).max()
        while lead < b.size - 1 and abs(b[lead]) < 1e-13 * bmax:
            lead += 1
        b = b[lead:]
        M = b.size - 1
        if abs(b[0]) < 1e-13 * np.abs(b).max():
            raise PadeDegeneracyError(
                "singular Pade denominator (b0 ~ 0); try smaller M")
        a = np.zeros(M + 1)
        for k in range(M + 1):
            a[k] = np.dot(b[: k + 1], c[k - np.arange(k + 1)])
        a = a / b[0]
        b = b / b[0]
    return PadeApproximant(a, b)
