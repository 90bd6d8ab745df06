"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.

Every check asserts what the posterior-mean rule provably delivers at the
stated settings, with bounds tight enough to fail on a wrong rule.  Three
criteria assert derived properties where a literal reading asks for a number
the method cannot produce:

- criterion 4 under 64-node Gauss-Hermite: 1e-6 oracle agreement where the
  slab density's poles lie at least one noise standard deviation from the
  real axis, and strict convergence to the oracle with the node count where
  they lie closer (t = -3, t = 10);
- criterion 5: for t = 3 the classical risk rises to its Tweedie plateau
  instead of peaking in (3, 4), so the rise, the plateau and oracle values
  are asserted; the peak is asserted for t = -3;
- criterion 6b: most reference Bayes risks exceed the Bayes-rule cap
  (1 - alpha) tau^2, so the quadrature is asserted against that cap and
  against the identity r = (1 - alpha) tau^2 - E[delta^2] computed from the
  oracle, and each reference entry is printed with its gap.

Reference AMSE values (criterion 7) are externally reported results for this
estimator family; their tolerance band is applied as-is and every residual
discrepancy is printed.
"""
import math

import numpy as np
import pytest

from conftest import (gsh_pole_distance, oracle_bayes_risk,
                      oracle_classical_risk, oracle_posterior_mean)
from gsh_shrink.cli import main
from gsh_shrink.dwt import daubechies_filter, forward, inverse
from gsh_shrink.elicitation import (ElicitationConfig, alpha_level, elicit_t,
                                    estimate_sigma)
from gsh_shrink.experiments import ExperimentConfig, run_experiment
from gsh_shrink.gsh_prior import (GshParams, ShrinkagePrior, gsh_density,
                                  gsh_kurtosis, gsh_sample)
from gsh_shrink.numerics import DENSE_QUAD, QuadratureSpec, SeededRng
from gsh_shrink.risk_analysis import (MONTE_CARLO, QUADRATURE, bayes_risk,
                                      risk_curve, rule_moments)
from gsh_shrink.shrinkage import ShrinkageRule, shrink_array

GH64 = QuadratureSpec(node_count=64)

#: Reference Bayes risks (tau = 1): by slab shape at alpha = 0.9, and by
#: spike weight at t = 3.  All but the alpha = 0.8 entry exceed the Bayes-rule
#: cap (1 - alpha) tau^2 at sigma = 1; criterion 6b prints them, not asserts.
REFERENCE_RISK_BY_T = {-3.0: 0.125, -2.0: 0.329, -1.0: 0.223, 0.1: 0.235,
                       1.0: 0.183, 2.0: 0.221, 3.0: 0.240, 10.0: 0.247}
REFERENCE_RISK_BY_ALPHA = {0.6: 0.744, 0.7: 0.762, 0.8: 0.129, 0.9: 0.245,
                           0.99: 0.03}

#: Reference AMSE for the GSH rule on the desk-scale reproduction cells.
REFERENCE_AMSE = {
    ("doppler", 512, 3.0): 1.162, ("doppler", 512, 7.0): 0.264,
    ("doppler", 2048, 3.0): 0.423, ("doppler", 2048, 7.0): 0.104,
    ("heavisine", 512, 3.0): 0.472, ("heavisine", 512, 7.0): 0.159,
    ("heavisine", 2048, 3.0): 0.238, ("heavisine", 2048, 7.0): 0.069,
}


def report(name: str, failures: list[str], detail: str = "") -> None:
    status = "FAIL" if failures else "PASS"
    suffix = f" — {detail}" if detail else ""
    print(f"[{status}] {name}{suffix}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"{name}: {len(failures)} check(s) failed"


def make_rule(alpha=0.9, tau=1.0, t=3.0, sigma=1.0, quad=DENSE_QUAD):
    return ShrinkageRule(prior=ShrinkagePrior(alpha, GshParams.make(tau, t)),
                         sigma=sigma, quad=quad)


def test_criterion_1_prior_normalization():
    failures = []
    worst = 0.0
    for t in (-3.0, -2.0, -1.0, -math.pi / 2, 0.1, 1.0, 2.0, 3.0, 10.0):
        for tau in (0.5, 1.0, 2.0):
            p = GshParams.make(tau, t)
            theta = np.linspace(-60.0 * tau, 60.0 * tau, 200001)
            mass = np.trapezoid(gsh_density(theta, p), theta)
            err = abs(mass - 1.0)
            worst = max(worst, err)
            if err > 1e-8:
                failures.append(f"t={t} tau={tau}: integral {mass!r}")
    report("criterion 1: prior normalization on the (t, tau) grid", failures,
           f"worst |mass - 1| = {worst:.2e}")


def test_criterion_2_kurtosis_round_trip_and_sampling():
    failures = []
    for t in (-2.0, -1.0, 0.5, 1.0, 3.0):
        back = elicit_t(gsh_kurtosis(t))
        if abs(back - t) > 1e-9:
            failures.append(f"round trip t={t}: got {back!r}")
    kurt_errs = []
    for i, t in enumerate((-1.0, 1.0, 3.0)):
        draws = gsh_sample(SeededRng(1202, i), GshParams.make(1.0, t), 10**6)
        centered = draws - draws.mean()
        beta_hat = np.mean(centered**4) / np.mean(centered**2) ** 2
        err = abs(beta_hat - gsh_kurtosis(t))
        kurt_errs.append(err)
        if err > 0.15:
            failures.append(
                f"sample kurtosis t={t}: {beta_hat:.4f} vs {gsh_kurtosis(t):.4f}")
    report("criterion 2: kurtosis round-trip and sampler moments", failures,
           f"worst sample-kurtosis error = {max(kurt_errs):.3f}")


def test_criterion_3_dwt_reconstruction_and_moments():
    failures = []
    rng = np.random.default_rng(33)
    for n in (64, 512, 2048):
        for n_moments in (1, 4, 10):
            x = rng.normal(size=n)
            filt = daubechies_filter(n_moments)
            decomp = forward(x, filt, 3)
            pr = np.abs(inverse(decomp) - x).max()
            energy = np.sum(decomp.scaling**2) + sum(
                np.sum(d**2) for d in decomp.details.values())
            parseval = abs(energy - np.sum(x**2)) / np.sum(x**2)
            if pr > 1e-9:
                failures.append(f"n={n} N={n_moments}: reconstruction {pr:.2e}")
            if parseval > 1e-10:
                failures.append(f"n={n} N={n_moments}: energy error {parseval:.2e}")
    g = daubechies_filter(10).highpass
    for p in range(10):
        moment = math.fsum(g[m] * m**p for m in range(len(g)))
        if abs(moment) > 1e-8:
            failures.append(f"Daub10 moment p={p}: {moment:.2e}")
    report("criterion 3: DWT perfect reconstruction, Parseval, "
           "Daub10 vanishing moments", failures)


D_GRID = (0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0, 6.0, -6.0, 10.0, -10.0)
T_GRID = (-3.0, 0.1, 3.0, 10.0)
ALPHA_GRID = (0.6, 0.9, 0.99)

#: Gauss-Hermite node counts over which the rule must converge to the oracle
#: on slab shapes that 64 nodes do not resolve.
GH_DOUBLING = (64, 128, 256)


def _oracle_errors(t: float, quad) -> np.ndarray:
    """|delta - oracle| on the ALPHA_GRID x D_GRID cells of one slab shape."""
    d = np.array(D_GRID)
    return np.array([
        np.abs(shrink_array(d, make_rule(alpha=alpha, t=t, quad=quad))
               - oracle_posterior_mean(d, alpha, 1.0, t, 1.0))
        for alpha in ALPHA_GRID])


def _rule_vs_oracle(quad, shapes=T_GRID) -> tuple[list[str], float]:
    failures = []
    worst = 0.0
    for t in shapes:
        err = _oracle_errors(t, quad)
        worst = max(worst, float(err.max()))
        for i, j in zip(*np.nonzero(err > 1e-6)):
            failures.append(f"t={t} alpha={ALPHA_GRID[i]} d={D_GRID[j]}: "
                            f"|delta - oracle| = {err[i, j]:.2e}")
    return failures, worst


def _rule_shape_checks(quad) -> list[str]:
    failures = []
    for t in T_GRID:
        rule = make_rule(t=t, quad=quad)
        d = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
        plus = shrink_array(d, rule)
        minus = shrink_array(-d, rule)
        if np.max(np.abs(plus + minus)) > 1e-10:
            failures.append(f"t={t}: antisymmetry violated")
        if np.any(np.abs(plus) > np.abs(d)):
            failures.append(f"t={t}: |delta(d)| > |d|")
        grid = np.linspace(-10, 10, 2001)
        if np.min(np.diff(shrink_array(grid, rule))) < -1e-10:
            failures.append(f"t={t}: rule is not monotone")
    return failures


def test_criterion_4_rule_correctness_default_quadrature():
    failures, worst = _rule_vs_oracle(DENSE_QUAD)
    failures += _rule_shape_checks(DENSE_QUAD)
    report("criterion 4: rule vs posterior-mean oracle (dense default "
           "quadrature)", failures, f"worst error = {worst:.2e}")


def test_criterion_4_rule_correctness_gauss_hermite_64():
    # The Gauss-Hermite integrands carry the slab density g, whose poles lie
    # rho from the real axis, so n nodes err like exp(-2 (rho/sigma) sqrt(n)).
    # Where rho/sigma >= 1 (t = 0.1, 3) 64 nodes meet the 1e-6 tolerance
    # (measured 2.3e-10, 6.8e-9).  For t = -3 (rho = 0.26) and t = 10
    # (rho = 0.52) the predicted 64-node error is 1.5e-2 and 2.5e-4, so
    # there every cell is still run at 64 nodes but the rule must converge
    # to the oracle as the node count doubles.
    failures = []
    detail = []
    for t in T_GRID:
        rule = make_rule(t=t, quad=GH64)
        if gsh_pole_distance(rule.prior.gsh) / rule.sigma >= 1.0:
            shape_failures, worst = _rule_vs_oracle(GH64, (t,))
            failures += shape_failures
            detail.append(f"t={t}: 64 nodes {worst:.1e}")
            continue
        errs = [float(_oracle_errors(t, QuadratureSpec(node_count=n)).max())
                for n in GH_DOUBLING]
        trail = ", ".join(f"{n} nodes {e:.1e}"
                          for n, e in zip(GH_DOUBLING, errs))
        detail.append(f"t={t}: {trail}")
        if not all(a > b for a, b in zip(errs, errs[1:])):
            failures.append(f"t={t}: error does not fall strictly with the "
                            f"node count ({trail})")
        if errs[-1] > 1e-4:
            failures.append(f"t={t}: error {errs[-1]:.2e} > 1e-4 at "
                            f"{GH_DOUBLING[-1]} nodes")
    failures += _rule_shape_checks(GH64)
    report("criterion 4: rule vs oracle under 64-node Gauss-Hermite, with "
           "node doubling where the slab's poles are within sigma",
           failures, "; ".join(detail))


def test_criterion_5_risk_shape():
    # At alpha = 0.9, tau = sigma = 1 the heavy t = -3 slab gives a risk
    # that peaks inside (3, 4) (at |theta| = 3.40) and falls back.  The light
    # t = 3 slab has no such peak: for large |d| Tweedie's formula gives
    # delta(d) ~ d - sign(d) sigma^2 c2/tau, so R rises on [0, 8] towards
    # the plateau sigma^2 + (sigma^2 c2/tau)^2 = 7.2899, and on [0, 30] its
    # maximum is 7.289868 at theta =~ 26.7.  For t = 3 the test therefore
    # asserts the rise, the plateau and the values against an outer
    # integral of the oracle posterior mean.
    failures = []
    grid = np.linspace(-8.0, 8.0, 321)
    risks = {}
    for t in (-3.0, 3.0):
        curve = risk_curve(grid, make_rule(t=t))
        risk = risks[t] = curve.classical_risk
        even_err = np.max(np.abs(risk - risk[::-1]))
        if even_err > 1e-8:
            failures.append(f"t={t}: risk not even, max asymmetry {even_err:.2e}")
        ident = np.max(np.abs(risk - (curve.squared_bias + curve.variance)))
        if ident > 1e-8:
            failures.append(f"t={t}: risk != bias^2 + variance ({ident:.2e})")

    peak = abs(grid[int(np.argmax(risks[-3.0]))])
    if not 3.0 < peak < 4.0:
        failures.append(f"t=-3: risk maximum at |theta| = {peak:.3f}, "
                        f"outside (3, 4)")

    rule = make_rule(t=3.0)
    risk = risks[3.0]
    step = float(np.diff(risk[grid >= 0.0]).min())
    if step < 0.0:
        failures.append(f"t=3: risk decreases on [0, 8] (step {step:.2e})")
    p, sigma = rule.prior.gsh, rule.sigma
    plateau = sigma**2 + (sigma**2 * p.c2 / p.tau) ** 2
    for end in (risk[0], risk[-1]):
        if abs(end / plateau - 1.0) > 0.01:
            failures.append(f"t=3: R(+/-8) = {end:.4f} not within 1% of the "
                            f"plateau {plateau:.4f}")
    worst = 0.0
    for theta in (0.0, 2.0, 3.5, 6.0):
        got = risk[int(np.argmin(np.abs(grid - theta)))]
        ref = oracle_classical_risk(theta, rule.prior.alpha, p.tau, p.t, sigma)
        worst = max(worst, abs(got - ref))
        if abs(got - ref) > 1e-5:
            failures.append(f"t=3 theta={theta}: R = {got:.8f} vs oracle "
                            f"{ref:.8f}")
    report("criterion 5: classical-risk curve shape", failures,
           f"t=-3 peak at |theta| = {peak:.2f}; t=3 rises by >= {step:.1e} "
           f"per step to R(8)/plateau = {risk[-1] / plateau:.4f}, "
           f"worst |R - oracle| = {worst:.1e}")


def _bayes_risk_cells():
    cells = [(t, 0.9) for t in REFERENCE_RISK_BY_T]
    cells += [(3.0, a) for a in REFERENCE_RISK_BY_ALPHA if a != 0.9]
    return cells


def test_criterion_6_bayes_risk_quadrature_vs_monte_carlo():
    failures = []
    worst_sigmas = 0.0
    for i, (t, alpha) in enumerate(_bayes_risk_cells()):
        rule = make_rule(alpha=alpha, t=t, quad=GH64)
        quad = bayes_risk(rule, QUADRATURE)
        mc = bayes_risk(rule, MONTE_CARLO, mc_draws=10**5,
                        rng=SeededRng(606, i))
        gap = abs(quad.value - mc.value)
        n_sigma = gap / mc.std_error if mc.std_error > 0 else math.inf
        worst_sigmas = max(worst_sigmas, n_sigma)
        if gap > 3.0 * mc.std_error:
            failures.append(
                f"t={t} alpha={alpha}: quad {quad.value:.5f} vs "
                f"mc {mc.value:.5f} +/- {mc.std_error:.5f}")
    report("criterion 6a: Bayes-risk quadrature vs Monte Carlo (1e5 draws)",
           failures, f"worst gap = {worst_sigmas:.2f} standard errors")


def test_criterion_6_bayes_risk_reference_tables():
    # The posterior mean is the Bayes rule, so its Bayes risk is at most
    # that of delta = 0, (1 - alpha) tau^2, and of delta(d) = d, sigma^2.
    # 12 of the 13 reference entries exceed that cap at tau = sigma = 1
    # (0.329 > 0.1 at alpha = 0.9, 0.762 > 0.3 at alpha = 0.7), so they
    # cannot be Bayes risks of this rule there; they are printed with their
    # gaps, not asserted.  Each quadrature value must respect the cap and
    # match the identity r = (1 - alpha) tau^2 - E[delta(d)^2], evaluated
    # from the oracle alone.  The 1e-4 tolerance admits the 64-node
    # Gauss-Hermite error at t = -3 and t = 10 (measured 2.8e-5, 1.1e-5);
    # the other cells agree to 4e-8.
    failures = []
    entries = [(t, 0.9, ref) for t, ref in REFERENCE_RISK_BY_T.items()]
    entries += [(3.0, a, ref) for a, ref in REFERENCE_RISK_BY_ALPHA.items()]
    computed = {}
    print()
    for t, alpha, ref in entries:
        rule = make_rule(alpha=alpha, t=t, quad=GH64)
        tau, sigma = rule.prior.gsh.tau, rule.sigma
        if (t, alpha) not in computed:
            computed[(t, alpha)] = (bayes_risk(rule, QUADRATURE).value,
                                    oracle_bayes_risk(alpha, tau, t, sigma))
        value, identity = computed[(t, alpha)]
        cap = min((1.0 - alpha) * tau**2, sigma**2)
        print(f"    t={t:5} alpha={alpha:4}: quadrature {value:.4f}  "
              f"|quadrature - identity| = {abs(value - identity):.1e}  "
              f"reference {ref:.3f}  "
              f"|gap| = {abs(value - ref):.4f}  "
              f"{'breaks' if ref > cap else 'within'} cap {cap:.2f}")
        if not 0.0 < value <= cap:
            failures.append(f"t={t} alpha={alpha}: {value:.5f} outside "
                            f"(0, {cap:.2f}]")
        if abs(value - identity) > 1e-4:
            failures.append(f"t={t} alpha={alpha}: quadrature {value:.6f} vs "
                            f"identity {identity:.6f}")
    report("criterion 6b: Bayes risk within the Bayes-rule cap and equal to "
           "the oracle identity", failures,
           "reference entries printed; those above the cap are unreachable "
           "for the posterior mean")


def test_criterion_7_amse_desk_scale_reproduction():
    cfg = ExperimentConfig()  # full grid, M=20, gsh + universal_soft
    records = run_experiment(cfg)
    amse = {(r.function, r.n, r.snr, r.method): r.amse for r in records}

    failures = []
    print()
    for (fn, n, snr), ref in REFERENCE_AMSE.items():
        got = amse[(fn, n, snr, "gsh")]
        rel = got / ref - 1.0
        print(f"    {fn:>9} n={n:4d} snr={snr:g}: amse {got:.3f}  "
              f"reference {ref:.3f}  rel {rel:+.1%}")
        if abs(rel) > 0.25:
            failures.append(
                f"{fn} n={n} snr={snr}: {got:.3f} vs {ref:.3f} ({rel:+.1%})")

    for fn in cfg.functions:
        for n in cfg.sizes:
            for snr in cfg.snrs:
                g = amse[(fn, n, snr, "gsh")]
                u = amse[(fn, n, snr, "universal_soft")]
                if not g < u:
                    failures.append(
                        f"ordering: gsh {g:.3f} >= universal {u:.3f} at "
                        f"({fn}, {n}, {snr})")

    for fn in cfg.functions:
        for n in cfg.sizes:
            seq = [amse[(fn, n, snr, "gsh")] for snr in sorted(cfg.snrs)]
            if not all(a > b for a, b in zip(seq, seq[1:])):
                failures.append(f"AMSE not decreasing in SNR for {fn}, n={n}: {seq}")
        for snr in cfg.snrs:
            seq = [amse[(fn, n, snr, "gsh")] for n in sorted(cfg.sizes)]
            if not all(a > b for a, b in zip(seq, seq[1:])):
                failures.append(f"AMSE not decreasing in n for {fn}, snr={snr}: {seq}")

    report("criterion 7: desk-scale AMSE reproduction (M=20, fixed seed)",
           failures)


def test_criterion_8_elicitation_exactness():
    failures = []
    cfg = ElicitationConfig()
    j0 = cfg.primary_level
    if alpha_level(j0, cfg) != 0.0:
        failures.append("alpha at the primary level is not 0")
    if abs(alpha_level(j0 + 1, cfg) - 0.75) > 1e-15:
        failures.append(f"alpha(J0+1) = {alpha_level(j0 + 1, cfg)!r}, want 0.75")
    sigma = estimate_sigma([1.3, -1.3, 1.3, -1.3])
    if abs(sigma - 1.3 / 0.6745) > 1e-12:
        failures.append(f"sigma of constant-magnitude vector: {sigma!r}")
    if elicit_t(4.2) != 0.0:
        failures.append(f"elicit_t(4.2) = {elicit_t(4.2)!r}")
    if abs(elicit_t(5.0) + math.pi / 2) > 1e-12:
        failures.append(f"elicit_t(5) = {elicit_t(5.0)!r}")
    if abs(elicit_t(3.0) - math.pi) > 1e-12:
        failures.append(f"elicit_t(3) = {elicit_t(3.0)!r}")
    report("criterion 8: elicitation exactness", failures)


def test_criterion_9_end_to_end_determinism(tmp_path):
    import csv

    from gsh_shrink.numerics import sample_normal
    from gsh_shrink.signals import sample_function, scale_to_snr

    failures = []
    _, f_raw = sample_function("heavisine", 512)
    f = scale_to_snr(f_raw, 7.0, 1.0)
    y = f + sample_normal(SeededRng(515), 0.0, 1.0, 512)
    series = tmp_path / "series.csv"
    with open(series, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value"])
        writer.writerows([repr(float(v))] for v in y)

    for i in (1, 2):
        code = main(["denoise", str(series),
                     "--out-prefix", str(tmp_path / f"d{i}")])
        if code != 0:
            failures.append(f"denoise run {i} exited {code}")
    for suffix in ("_denoised.csv", "_coefficients.csv"):
        a = (tmp_path / f"d1{suffix}").read_bytes()
        b = (tmp_path / f"d2{suffix}").read_bytes()
        if a != b:
            failures.append(f"denoise outputs differ: {suffix}")

    sim_args = ["simulate", "--functions", "heavisine", "--n", "512",
                "--snr", "5", "--methods", "gsh,universal_soft", "--M", "3",
                "--seed", "99", "--jobs", "1"]
    for i in (1, 2):
        code = main(sim_args + ["--out-prefix", str(tmp_path / f"s{i}")])
        if code != 0:
            failures.append(f"simulate run {i} exited {code}")
    a = (tmp_path / "s1_amse.csv").read_bytes()
    b = (tmp_path / "s2_amse.csv").read_bytes()
    if a != b:
        failures.append("simulate outputs differ")
    report("criterion 9: end-to-end determinism of denoise and simulate",
           failures)
