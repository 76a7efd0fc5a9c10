"""Central-difference oracle for optim.grad, shared by the gradient tests and acceptance criterion C5."""

import numpy as np

from rflaf.model import RflafModel
from rflaf.optim import TrainConfig, grad, loss


def grad_check(
    model: RflafModel,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    step: float = 1e-5,
) -> float:
    """Worst relative disagreement between analytic and central-difference gradients.

    Relative error per coordinate is |g - fd| / max(|g| + |fd|, 1e-8).  When
    the L1 weight is active, every a_i must sit at least 10*step away from
    the kink at zero; violations raise instead of silently passing.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if cfg.lambda2 > 0 and np.min(np.abs(model.a)) <= 10.0 * step:
        raise ValueError(
            "some |a_i| <= 10*step: central differences straddle the L1 kink"
        )
    g_a, g_v = grad(model, X, y, cfg)
    worst = 0.0

    def _probe(analytic: float, rebuild) -> float:
        up = loss(rebuild(+step), X, y, cfg).total
        dn = loss(rebuild(-step), X, y, cfg).total
        fd = (up - dn) / (2.0 * step)
        return abs(analytic - fd) / max(abs(analytic) + abs(fd), 1e-8)

    for i in range(model.grid.n_basis):
        def bump_a(eps, i=i):
            a = model.a.copy()
            a[i] += eps
            return RflafModel(bank=model.bank, grid=model.grid, a=a, v=model.v)

        worst = max(worst, _probe(g_a[i], bump_a))
    for j in range(model.bank.n_features):
        def bump_v(eps, j=j):
            v = model.v.copy()
            v[j] += eps
            return RflafModel(bank=model.bank, grid=model.grid, a=model.a, v=v)

        worst = max(worst, _probe(g_v[j], bump_v))
    return worst
