"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3 checks 60-term partial sums at a 1e-8 tolerance against
an exact 60-digit reference built in the test: the program's partial sum
must match the exact partial sum, and its distance to the closed form must
match the exact truncation tail.  At h = 0.5 that tail reaches 8.5e-8 at
|r| = 1, so the 60-term sum itself cannot sit within 1e-8 of the closed
form there; an 80-term sum is held to 1e-8 against the closed form instead.
"""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from rflaf import basis, data, experiments
from rflaf.kernel import RbfParams, kernel_closed, kernel_mc, kernel_rot, kernel_taylor, poly_P, poly_Q, r_n, taylor_derivs
from rflaf.model import RflafModel, forward, sample_features
from rflaf.optim import TrainConfig

from gradcheck import grad_check


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_c1_kernel_closed_form_vs_monte_carlo():
    """Closed form within 4 standard errors of the Monte-Carlo oracle."""
    seed = 20260810
    trials, samples = 20, 1_000_000
    root = np.random.SeedSequence([seed, 1])
    pair_rng = np.random.default_rng(root.spawn(1)[0])
    mc_seeds = iter(int(s) for s in root.generate_state(8 * trials))
    worst = None
    all_ok = True
    details = []
    for d in (2, 5):
        for c in (0.0, 1.0):
            for h in (0.5, 1.0):
                params = RbfParams(center=c, width=h)
                passes = 0
                for _ in range(trials):
                    x = pair_rng.standard_normal(d)
                    x2 = pair_rng.standard_normal(d)
                    closed = kernel_closed(x, x2, params)
                    est = kernel_mc(x, x2, params, samples, next(mc_seeds))
                    passes += abs(closed - est.mean) <= 4.0 * est.stderr
                ok = passes >= trials - 1
                all_ok = all_ok and ok
                details.append(f"d={d},c={c},h={h}: {passes}/{trials}")
                if worst is None or passes < worst:
                    worst = passes
    _report("C1 closed-form vs Monte Carlo", all_ok, "; ".join(details))


def test_c2_taylor_identities():
    """Exact polynomial tables and the derivative recurrence identity."""
    p_expected = {0: [1], 1: [-1, 1], 2: [3, -6, 1], 3: [-15, 45, -15, 1], 4: [105, -420, 210, -28, 1]}
    q_expected = {0: [1], 1: [-3, 1], 2: [15, -10, 1], 3: [-105, 105, -21, 1]}
    coeff_ok = all(poly_P(k) == v for k, v in p_expected.items()) and all(
        poly_Q(k) == v for k, v in q_expected.items()
    )
    worst_rel = 0.0
    for p in (0.0, 0.5, 1.0, 2.0, 5.0):
        y = taylor_derivs(p, 16)
        ep = math.exp(-p)
        for n in range(17):
            closed = ep * r_n(p, n)
            denom = max(abs(closed), abs(y[n]))
            if denom > 0:
                worst_rel = max(worst_rel, abs(y[n] - closed) / denom)
    rec_ok = worst_rel <= 1e-8
    _report(
        "C2 Taylor identities",
        coeff_ok and rec_ok,
        f"coefficient tables exact: {coeff_ok}; worst recurrence rel err {worst_rel:.2e} (tol 1e-8)",
    )


def _exact_r_n(p: Fraction, n_terms: int) -> list[Fraction]:
    """R_0(p) .. R_{n_terms-1}(p) in rational arithmetic.

    Uses the three-term derivative recurrence, which R_n = e^p y^(n)
    satisfies as well, so the reference does not depend on poly_P / poly_Q.
    """
    r = [Fraction(1), p, (p - 1) ** 2]
    for n in range(2, n_terms - 1):
        r.append((p - n) * r[n] - n * (p - n) * r[n - 1] + n * (n - 1) ** 2 * r[n - 2])
    return r[:n_terms]


def _exact_sum_and_tail(rs: list[float], c: float, h: float, n_terms: int) -> list[tuple[float, float]]:
    """(S_n(r), K(r) - S_n(r)) per grid point, in 60-digit arithmetic.

    S_n is the exact n-term partial sum and K the exact unit-sphere profile
    h^2 / sqrt((1+h^2)^2 - r^2) * exp(-c^2 / (1+h^2+r)); c, h and each r
    are taken exactly from their float values.
    """

    def dec(q: Fraction) -> decimal.Decimal:
        return decimal.Decimal(q.numerator) / q.denominator

    with decimal.localcontext() as ctx:
        ctx.prec = 60
        h2 = Fraction(h) ** 2
        c2 = Fraction(c) ** 2
        p = c2 / (1 + h2)
        coeffs = [dec(rn / (math.factorial(n) * (1 + h2) ** n)) for n, rn in enumerate(_exact_r_n(p, n_terms))]
        front = dec(h2 / (1 + h2)) * dec(-p).exp()
        dh2, dc2 = dec(h2), dec(c2)
        out = []
        for r in rs:
            x = decimal.Decimal(r)
            acc = decimal.Decimal(0)
            for a in reversed(coeffs):
                acc = acc * x + a
            partial = front * acc
            profile = dh2 / ((1 + dh2) ** 2 - x * x).sqrt() * (-dc2 / (1 + dh2 + x)).exp()
            out.append((float(partial), float(profile - partial)))
    return out


def test_c3_series_convergence_sixty_terms():
    """60-term partial sums vs an exact reference on a 101-point grid, tol 1e-8.

    (a) kernel_taylor(r, 60) matches the exact 60-term sum S_60(r);
    (b) kernel_rot(r) - kernel_taylor(r, 60) matches the exact tail
        K(r) - S_60(r), which at h = 1 (tail ~1e-20) is the direct
        series-vs-closed-form check;
    (c) at h = 0.5, where the exact 60-term tail at r = +/-1 is 8.50e-8
        (c=0), 5.28e-8 (c=1) and 1.40e-8 (c=2), the 80-term sum is held
        within 1e-8 of kernel_rot directly.
    """
    tol = 1e-8
    rs = [float(r) for r in np.linspace(-1.0, 1.0, 101)]
    details = []
    all_ok = True
    for h in (0.5, 1.0):
        for c in (0.0, 1.0, 2.0):
            params = RbfParams(center=c, width=h)
            ref = _exact_sum_and_tail(rs, c, h, 60)
            sum_err = tail_err = 0.0
            for r, (partial, tail) in zip(rs, ref):
                got = kernel_taylor(r, params, 60)
                sum_err = max(sum_err, abs(got - partial))
                tail_err = max(tail_err, abs((kernel_rot(r, params) - got) - tail))
            exact_tail = max(abs(tail) for _, tail in ref)
            ok = sum_err <= tol and tail_err <= tol
            detail = f"h={h},c={c}: exact tail {exact_tail:.2e}, sum err {sum_err:.1e}, tail err {tail_err:.1e}"
            if h == 0.5:
                err80 = max(abs(kernel_taylor(r, params, 80) - kernel_rot(r, params)) for r in rs)
                ok = ok and err80 <= tol
                detail += f", 80-term err {err80:.1e}"
            all_ok = all_ok and ok
            details.append(detail)
    _report("C3 series convergence (60 terms vs exact, tol 1e-8)", all_ok, "; ".join(details))


def test_c4_approximation_rate():
    """Mean absolute error decays like 1/sqrt(M): fitted slope in [-0.65, -0.35]."""
    result = experiments.rate_study(
        RbfParams(center=1.0, width=1.0),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        m_values=[32, 64, 128, 256, 512, 1024, 2048],
        trials=10,
        seed=424242,
        test_points=2000,
        ref_samples=1_000_000,
    )
    ok = -0.65 <= result.slope <= -0.35
    errs = ", ".join(f"M={m}: {e:.4g}" for m, e in zip(result.m_values, result.mean_abs_err))
    _report("C4 1/sqrt(M) approximation rate", ok, f"slope {result.slope:.3f} in [-0.65, -0.35]; {errs}")


def test_c5_gradient_correctness():
    """Analytic gradients within 1e-5 of central differences on 20 instances."""
    rng = np.random.default_rng(55055)
    worst = 0.0
    for i in range(20):
        n_basis = int(rng.integers(2, 17))
        m = int(rng.integers(2, 33))
        d = int(rng.integers(1, 5))
        n = int(rng.integers(4, 65))
        bank = sample_features(d, m, seed=int(rng.integers(2**31)))
        grid = basis.build_grid(-2.0, 2.0, n_basis, float(rng.uniform(0.2, 0.8)))
        a = rng.standard_normal(n_basis)
        a = np.sign(a) * (np.abs(a) + 0.05)  # keep clear of the L1 kink
        v = rng.standard_normal(m)
        mod = RflafModel(bank=bank, grid=grid, a=a, v=v)
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        cfg = TrainConfig(
            lambda1=float(rng.uniform(0, 1e-2)),
            lambda2=float(rng.uniform(0, 1e-3)) if i % 2 == 0 else 0.0,
        )
        worst = max(worst, grad_check(mod, X, y, cfg, step=1e-5))
    ok = worst <= 1e-5
    _report("C5 gradient correctness", ok, f"worst relative error {worst:.2e} (tol 1e-5)")


def test_c6_forward_bound():
    """|f(x)| <= sqrt(N/M) |a| |v| with zero violations over 1e4 draws."""
    rng = np.random.default_rng(66066)
    violations = 0
    worst_margin = -np.inf
    for _ in range(100):
        n_basis = int(rng.integers(2, 9))
        m = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        bank = sample_features(d, m, seed=int(rng.integers(2**31)))
        grid = basis.build_grid(-2.0, 2.0, n_basis, float(rng.uniform(0.1, 1.0)))
        a = rng.standard_normal(n_basis) * float(rng.uniform(0.1, 3.0))
        v = rng.standard_normal(m) * float(rng.uniform(0.1, 3.0))
        mod = RflafModel(bank=bank, grid=grid, a=a, v=v)
        bound = math.sqrt(n_basis / m) * float(np.linalg.norm(a)) * float(np.linalg.norm(v))
        for _ in range(100):
            x = rng.standard_normal(d) * float(rng.uniform(0.1, 3.0))
            margin = abs(forward(mod, x)) - bound
            worst_margin = max(worst_margin, margin)
            violations += margin > 1e-12
    _report("C6 forward bound", violations == 0, f"violations {violations}/10000; worst margin {worst_margin:.2e}")


@pytest.mark.parametrize("sigma_kind", ["s1", "s2"])
def test_c7_scaled_recovery_experiment(sigma_kind, tmp_path):
    """Matched-parameter comparison and activation recovery, per target."""
    cfg = {
        "seed": 2026,
        "target": {"sigma": sigma_kind, "b1": [1.0, 0.0], "b2": [0.0, 1.0], "mc_samples": 100_000, "seed": 77},
        "data": {"n": 6000, "dim": 2, "test_fraction": 0.2},
        "model": {"n_features": 300, "n_basis": 200, "support": [-2.0, 2.0], "width": 0.04},
        "train": {"lambda1": 1e-3, "lambda2": 1e-4, "learning_rate": 1e-2, "epochs": 30, "batch_size": 256},
        "baselines": ["relu", "tanh", "rbf1", "rbf2"],
        "mse_ratio_max": 0.5,
        "activation_grid_points": 401,
        "min_activation_correlation": 0.9,
    }
    code = experiments.run("train-compare", cfg, str(tmp_path))
    summary = (tmp_path / "train_compare_summary.txt").read_text()
    ratio_line = next(line for line in summary.splitlines() if line.startswith("mse ratio"))
    corr_line = next(line for line in summary.splitlines() if line.startswith("activation correlation"))
    _report(
        f"C7 scaled recovery ({sigma_kind})",
        code == 0,
        f"{ratio_line}; {corr_line}",
    )


def test_c8_quadrature_weight_norm_bounds():
    """Both constructive-weight norm inequalities across targets and grid sizes."""
    all_ok = True
    details = []
    for kind in ("s1", "s2", "s3"):
        for n in (100, 200, 400):
            grid = basis.build_grid(-2.0, 2.0, n, 2.0 * 4.0 / n)
            weights = basis.quadrature_weights(grid, data.sigma_eval_array(kind, grid.centers))
            l1_bound, l2_bound = basis.quadrature_norm_bounds(grid, 1.0)
            l1 = float(np.sum(np.abs(weights)))
            l2 = float(np.sum(weights**2))
            ok = l1 <= l1_bound and l2 <= l2_bound
            all_ok = all_ok and ok
            details.append(f"{kind},N={n}: l1 {l1:.3f}<={l1_bound:.3f}, l2 {l2:.4f}<={l2_bound:.4f}")
    _report("C8 quadrature-weight norm bounds", all_ok, "; ".join(details[:3]) + "; ...")
