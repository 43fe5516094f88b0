"""Reference evaluators the tests compare the package against.

They compute the same quantities as netsde by the direct route: central
differences, row-by-row contrasts and exhaustive enumeration.  They are
slow on purpose and live here, not in the package.
"""
import itertools

import numpy as np

from netsde.model import NsdeSpec, ParamVector, diffusion_shape, path_drift_fn


def numerical_hessian(fn, x: np.ndarray, rel_step: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian with per-coordinate steps rel_step * (1 + |x_k|)."""
    x = np.asarray(x, dtype=float)
    p = x.size
    steps = rel_step * (1.0 + np.abs(x))
    hess = np.empty((p, p))
    f0 = fn(x)
    for k in range(p):
        ek = np.zeros(p)
        ek[k] = steps[k]
        hess[k, k] = (fn(x + ek) - 2.0 * f0 + fn(x - ek)) / steps[k] ** 2
        for m in range(k + 1, p):
            em = np.zeros(p)
            em[m] = steps[m]
            val = (fn(x + ek + em) - fn(x + ek - em)
                   - fn(x - ek + em) + fn(x - ek - em)) / (4.0 * steps[k] * steps[m])
            hess[k, m] = val
            hess[m, k] = val
    return hess


def path_diffusion_fn(spec: NsdeSpec, theta: ParamVector):
    """Return a callable evaluating sigma on arrays of shape (..., d)."""
    alpha = theta.alpha

    def diffusion(x):
        return alpha * diffusion_shape(spec, x)

    return diffusion


def increment_losses(rows: np.ndarray, delta: float, spec, g,
                     theta: ParamVector) -> np.ndarray:
    """Contrast of every increment of rows (n + 1, d), summed over nodes."""
    x0 = rows[:-1]
    dx = np.diff(rows, axis=0)
    drift = path_drift_fn(spec, g, theta)(x0)
    sig = path_diffusion_fn(spec, theta)(x0)
    r = dx - delta * drift
    var = sig * sig
    return np.sum(r * r / (2.0 * delta * var) + 0.5 * np.log(var), axis=1)


def validation_loss_by_rows(path, spec, g, thetas, scheme="holdout_tail",
                            fraction=0.3, k=5, n_se_blocks=10):
    """validation_loss evaluated increment by increment for each candidate."""
    n = path.n
    if scheme == "holdout_tail":
        n_tail = max(1, int(np.floor(n * fraction)))
        rows = path.data[n - n_tail:]
        blocks = np.array_split(np.arange(n_tail), min(n_se_blocks, n_tail))
    else:
        rows = path.data
        blocks = np.array_split(np.arange(n), min(k, n))
    losses, ses = [], []
    for theta in thetas:
        per_inc = increment_losses(rows, path.delta, spec, g, theta)
        means = [per_inc[b].mean() for b in blocks]
        losses.append(per_inc.mean())
        ses.append(np.std(means, ddof=1) / np.sqrt(len(blocks))
                   if len(blocks) > 1 else 0.0)
    return np.array(losses), np.array(ses)


def exact_box_lasso(h, center, lam, gamma, lo, hi):
    """Minimizer of (x-c)'H(x-c)/2 + lam sum gamma_k |x_k| over the box, by
    enumeration for small p.

    Every coordinate is at lo, at hi, at zero, or free with a sign; on the
    free set stationarity is a linear system.  The true minimizer is one of
    these candidates, so the feasible, sign-consistent candidate with the
    lowest objective is it.  Candidates sharing a free set share one solve.
    """
    p = center.shape[0]
    levels = np.stack([lo, hi, np.zeros(p)])
    found = []
    for mask in itertools.product([False, True], repeat=p):
        free = np.array(mask)
        fixed = ~free
        at = list(itertools.product(*(levels[:, k] for k in np.flatnonzero(fixed))))
        at = np.array(at, dtype=float).reshape(len(at), int(fixed.sum()))
        signs = list(itertools.product([1.0, -1.0], repeat=int(free.sum())))
        signs = np.array(signs).reshape(len(signs), int(free.sum()))
        x = np.zeros((at.shape[0], signs.shape[0], p))
        x[:, :, fixed] = at[:, None, :]
        rhs = ((at - center[fixed]) @ h[np.ix_(free, fixed)].T)[:, None, :] \
            + lam * gamma[free] * signs[None, :, :]
        x[:, :, free] = center[free] - np.linalg.solve(
            h[np.ix_(free, free)], rhs[..., None])[..., 0]
        consistent = np.all(signs[None, :, :] * x[:, :, free] > 0.0, axis=-1)
        x = x[consistent]
        found.append(x[np.all((x >= lo) & (x <= hi), axis=-1)])
    cand = np.concatenate(found)
    dev = cand - center
    f = 0.5 * np.einsum("ci,ij,cj->c", dev, h, dev) + lam * np.abs(cand) @ gamma
    return cand[np.argmin(f)]
