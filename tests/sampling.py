"""Seeded random phase points with comfortable regularity margins."""

import numpy as np

from spincm.models import PhasePoint, ReducedPoint, singular_distance


def random_point(spec, rng, scale=0.4, momentum_zero=True, q_imag=0.0,
                 margin=0.3, p_scale=1.0):
    """A random regular PhasePoint; momentum_zero puts it on J^-1(0)."""
    N = spec.ctx.N
    while True:
        q = np.linspace(0.75, -0.75, N) * (0.8 + 0.4 * rng.uniform())
        q = q + 0.1 * rng.standard_normal(N) + 1j * q_imag * rng.standard_normal(N)
        q = q - q.mean()
        i, j = spec.regular_roots
        if singular_distance(spec, q[i] - q[j]).min(initial=np.inf) < margin:
            continue
        break
    p = p_scale * (rng.standard_normal(N) + 1j * q_imag * rng.standard_normal(N))
    p = p - p.mean()
    xi = scale * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    if momentum_zero:
        np.fill_diagonal(xi, 0.0)
    else:
        np.fill_diagonal(xi, xi.diagonal() - xi.diagonal().mean())
    return PhasePoint(q=q, p=p, xi=xi)


def random_reduced(spec, rng, scale=0.4):
    """A random regular ReducedPoint (s_{a_i} = 1, other entries ~ scale)."""
    pt = random_point(spec, rng, scale=scale, momentum_zero=True)
    s = pt.xi
    for k in range(spec.ctx.N - 1):
        s[k, k + 1] = 1.0
    return ReducedPoint(q=pt.q, p=pt.p, s=s)
