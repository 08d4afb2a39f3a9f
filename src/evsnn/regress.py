"""Ordinary least squares with t-statistics for the augmentation sweep.

The sweep produces one accuracy per (combination, fold) cell; the design
matrix is an intercept plus one 0/1 dummy per common augmentation. Solving
goes through a QR decomposition (never the normal equations), standard
errors come from sigma^2 (X'X)^-1, and two-sided p-values use the exact
Student-t tail via the regularized incomplete beta function
    p = I_{df/(df+t^2)}(df/2, 1/2),
so degrees of freedom from small smoke sweeps are handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betainc

from ._schema import Bound, bounded


class RankDeficientError(ValueError):
    """Design matrix is rank deficient; names the offending column."""


def student_t_sf2(t: np.ndarray, df: Annotated[int, Bound(1)]) -> np.ndarray:
    """Two-sided tail probability P(|T| >= t) for Student-t with df > 0."""
    bounded(student_t_sf2, {"df": df}, "", ValueError)
    t = np.asarray(t, dtype=np.float64)
    out = np.ones_like(t)
    finite = np.isfinite(t)
    x = df / (df + t[finite] ** 2)
    out[finite] = betainc(df / 2.0, 0.5, x)
    out[~finite] = 0.0
    return out


@dataclass
class RegressionReport:
    names: list[str]          # column names, intercept first
    coef: np.ndarray
    se: np.ndarray
    t_stat: np.ndarray
    p_value: np.ndarray
    r2: float
    n: int
    df: int
    alpha: float = 0.05

    @property
    def significant(self) -> np.ndarray:
        return self.p_value < self.alpha

    def to_json_dict(self) -> dict:
        rows = []
        for i, name in enumerate(self.names):
            rows.append({
                "name": name,
                "coef": float(self.coef[i]),
                "se": float(self.se[i]),
                "t": float(self.t_stat[i]) if np.isfinite(self.t_stat[i]) else None,
                "p": float(self.p_value[i]),
                "significant": bool(self.significant[i]),
            })
        return {"version": 1, "n": self.n, "df": self.df, "r2": self.r2,
                "alpha": self.alpha, "terms": rows}


def format_text(report: RegressionReport) -> str:
    lines = [f"OLS: n={report.n}, df={report.df}, R^2={report.r2:.6f}",
             f"{'term':<12s} {'coef':>12s} {'se':>12s} {'t':>10s} "
             f"{'p':>12s}  signif"]
    for i, name in enumerate(report.names):
        t = report.t_stat[i]
        t_str = f"{t:>10.3f}" if np.isfinite(t) else f"{'inf':>10s}"
        star = "*" if report.significant[i] else ""
        lines.append(f"{name:<12s} {report.coef[i]:>12.6f} {report.se[i]:>12.6f} "
                     f"{t_str} {report.p_value[i]:>12.6g}  {star}")
    return "\n".join(lines) + "\n"


def ols(x: np.ndarray, y: np.ndarray, names: list[str]) -> RegressionReport:
    """OLS fit of y on x (x includes the intercept column).

    Degenerate-fit conventions: a zero residual makes se = 0; then t is +inf
    (p = 0) for nonzero coefficients and 0 (p = 1) for zero ones, matching the
    exact-recovery limit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    if len(names) != p:
        raise ValueError("one name per design column required")
    if n <= p:
        raise ValueError(f"need n > {p} observations, got {n}")
    q, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    tol = max(n, p) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    bad = np.nonzero(diag <= tol)[0]
    if bad.size:
        raise RankDeficientError(
            f"design matrix rank deficient at column {names[bad[0]]!r}")
    coef = solve_triangular(r, q.T @ y)
    resid = y - x @ coef
    rss = float(resid @ resid)
    df = n - p
    sigma2 = rss / df
    # (X'X)^-1 = R^-1 R^-T from the reduced QR
    r_inv = solve_triangular(r, np.eye(p))
    cov = sigma2 * (r_inv @ r_inv.T)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = np.where(se > 0, coef / np.where(se > 0, se, 1.0),
                          np.where(coef == 0, 0.0, np.inf * np.sign(coef)))
    p_value = student_t_sf2(np.abs(t_stat), df)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    return RegressionReport(names=list(names), coef=coef, se=se, t_stat=t_stat,
                            p_value=p_value, r2=r2, n=n, df=df)


def eda_design(masks: np.ndarray, eda_names: tuple[str, ...]) -> np.ndarray:
    """Intercept plus one dummy per augmentation, bit j of the mask."""
    masks = np.asarray(masks, dtype=np.int64)
    cols = [np.ones(len(masks))]
    cols += [((masks >> j) & 1).astype(np.float64) for j in range(len(eda_names))]
    return np.stack(cols, axis=1)


def eda_regression(masks: np.ndarray, accuracies: np.ndarray,
                   eda_names: tuple[str, ...]) -> RegressionReport:
    """Accuracy on augmentation dummies, one record per sweep cell."""
    x = eda_design(masks, eda_names)
    return ols(x, accuracies, ["intercept", *eda_names])
