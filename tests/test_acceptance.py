"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here exactly as contracted.  Two sub-criteria are
known to be unattainable as stated and are implemented faithfully anyway
(see notes on the discrete-pair and transitivity error rates inside): their
failures are intentional, with the measured values in the assertion message.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import shaped_nilpotent_tensor
from shiftlab import criteria as cr
from shiftlab import dynamics as dyn
from shiftlab import grading as gr
from shiftlab import nilpotent as nil
from shiftlab import operators as op
from shiftlab.linalg import Subspace
from shiftlab.rational import Poly, RationalFunction, RationalMatrix
from shiftlab.reports import canonical_json


def _report(tag: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {status}{' - ' + detail if detail else ''}")
    return ok


def unit(i, dim):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def test_c01_determinant_recurrence():
    start = time.time()
    exact = all(
        nil.det_mnk_recurrence(n, k) == nil.build_mnk_exact(n, k).det()
        for n in range(1, 9)
        for k in range(1, 9)
    )
    elapsed = time.time() - start
    ok = exact and elapsed < 5.0
    assert _report("1 determinant-recurrence", ok, f"exact={exact}, {elapsed:.2f}s")


def test_c02_scaling_factorization():
    exact_ok = True
    for n in range(1, 7):
        for z in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            d = nil.scaling_dnz_exact(n, z)
            exact_ok &= nil.build_anz_exact(n, z) == (d @ nil.build_anz_exact(n, 1) @ d) * z
    float_err = 0.0
    for n in range(1, 7):
        d = nil.scaling_dnz(n, 1j)
        lhs = nil.build_anz(n, 1j)
        rhs = 1j * (d @ nil.build_anz(n, 1) @ d)
        float_err = max(float_err, float(np.max(np.abs(lhs - rhs))))
    ok = exact_ok and float_err <= 1e-12
    assert _report("2 scaling-factorization", ok, f"exact={exact_ok}, float err={float_err:.2e}")


def test_c03_jordan_solver():
    # The 1e-10 residual demand at |z| up to 2^10, n = 5 is only meetable by
    # the exact-rational flavor (the floating check loses |z|^(n-1) eps to
    # cancellation), so the solver under test is the exact one; residuals
    # are evaluated exactly as well.
    start = time.time()
    rng = np.random.default_rng(20260808)
    worst_sq = Fraction(0)
    bound_ok = True
    for n in range(1, 6):
        for _ in range(100):
            u = [Fraction(x).limit_denominator(2**20) for x in rng.uniform(0, 1, n)]
            v = [Fraction(x).limit_denominator(2**20) for x in rng.uniform(0, 1, n)]
            c_fit = None
            for e in range(1, 11):
                z = Fraction(2) ** e
                x = nil.jordan_solve_exact(n, z, u, v)
                r1, r2 = nil.jordan_residuals_exact(n, z, u, v, x)
                worst_sq = max(worst_sq, r1, r2)
                tails = [abs(complex(x[n + j - 1])) for j in range(1, n + 1)]
                if e == 1:
                    # data at |z|=2 underestimates the uniform constant; use
                    # the standard 16x margin (observed worst ratio ~9)
                    c_fit = 16.0 * max(
                        t * 2.0**j for j, t in enumerate(tails, 1)
                    )
                else:
                    for j, t in enumerate(tails, 1):
                        if t > (c_fit + 1e-300) * float(z) ** (-j):
                            bound_ok = False
    elapsed = time.time() - start
    worst = math.sqrt(float(worst_sq))
    ok = worst <= 1e-10 and bound_ok and elapsed < 30.0
    assert _report(
        "3 jordan-solver",
        ok,
        f"worst residual={worst:.2e}, decay bound={bound_ok}, {elapsed:.1f}s",
    )


def test_c04_similarity_identity():
    ok = True
    for n in range(1, 6):
        j = nil.similarity_j(n)
        s = nil.backward_shift_exact(2 * n)
        rhs = (nil.exp_shift_exact(2 * n) - RationalMatrix.identity(2 * n)) @ j
        ok &= (j @ s) == rhs and j.det() != 0
    assert _report("4a similarity-identity", ok, "JS = (e^S - I)J exact for 2n <= 10")


def test_c04_discrete_pair_errors_at_horizon():
    # As stated: both error norms <= 1e-6 at j = 2^12 for n <= 4, probed on
    # the module's own canonical example vectors u = e1, v = 0.  The n = 1
    # error is |u_1 - v_1| / j = 2^-12 = 2.44e-4 in closed form, so this
    # criterion cannot hold at n = 1 for any pair with |u_1 - v_1| > 4.1e-3;
    # the measured errors for n = 2, 3, 4 are 4.0e-7, 1.2e-9, 5.7e-12.
    # Expected to FAIL; see the decisions ledger.
    worst = {}
    for n in range(1, 5):
        u = [Fraction(1)] + [Fraction(0)] * (n - 1)
        v = [Fraction(0)] * n
        e1, e2 = nil.discrete_pair_errors_exact(n, 2**12, u, v)
        worst[n] = max(e1, e2)
    ok = all(w <= 1e-6 for w in worst.values())
    detail = ", ".join(f"n={n}: {w:.2e}" for n, w in worst.items())
    assert _report("4b discrete-pair-errors", ok, detail), (
        "errors at j=2^12: " + detail + "; the n=1 error equals |u1-v1|/j "
        "exactly, making the stated 1e-6 unattainable (see decisions ledger)"
    )


def test_c05_subspace_computations():
    ok = True
    for n in range(1, 7):
        s = nil.backward_shift(2 * n)
        expected = Subspace.from_vectors([unit(i, 2 * n) for i in range(n)])
        kd = cr.ker_dagger(s, 1e-9)
        lam = cr.lambda_t(np.eye(2 * n) + s, 1e-9)
        ok &= kd.dim == n and kd.same_space(expected, 1e-9)
        ok &= lam.dim == n and lam.same_space(expected, 1e-9)
    diag = np.diag(np.exp(1j * np.array([0.4, 1.1, 2.2, 3.9])))
    ok &= cr.lambda_t(diag).dim == 0
    assert _report("5 subspaces", ok)


def test_c06_ebs_perturbation_exact():
    rng = np.random.default_rng(6)
    checked = 0
    ok = True
    for seed in range(50):
        depth = 2 if seed % 2 == 0 else 3
        dim = 10 if depth == 2 else 12
        xi, x1, x2 = shaped_nilpotent_tensor(rng, dim, depth=depth)
        s = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        pert = cr.ebs_perturb(xi, x1, x2, s, n=depth)
        t, _ = op.tensor_op(pert.xi_s)
        ok &= (t.pow(depth) @ list(pert.u_n)) == [s**depth * a for a in x1]
        ok &= (t.pow(depth) @ list(pert.u_2n)) == [s**depth * a for a in x2]
        ok &= t.pow(2 * depth).is_zero()
        checked += 1
    assert _report("6 ebs-perturbation", ok and checked == 50, f"{checked} seeds, exact")


def _exact_log_trace_oracle(exponents_of_two, m_max, n_max, variant):
    """Trace oracle for dyadic weights: exact integer exponent sums times
    log 2, with the single rounding done in extended precision (a float64
    log 2 would contaminate the oracle itself by ~1e-12 after scaling)."""
    lo = -n_max + 1
    hi = m_max + n_max
    exps = np.array([exponents_of_two(j) for j in range(lo, hi + 1)], dtype=np.int64)
    prefix = np.concatenate([[0], np.cumsum(exps)])
    ns = np.arange(1, n_max + 1)
    log2 = np.log(np.longdouble(2.0))
    out = np.empty((m_max + 1, n_max))
    for m in range(m_max + 1):
        left = (prefix[m - lo + 1] - prefix[m - ns + 1 - lo]).astype(np.longdouble) * log2
        right = (prefix[m + ns - lo + 1] - prefix[m + 1 - lo]).astype(np.longdouble) * log2
        row = np.maximum(left, -right) if variant == "hypercyclic" else left - right
        out[m] = row.astype(np.float64)
    return out


def test_c07_salas_criteria():
    start = time.time()
    m_max, n_max = 8, 2**14
    results = {}
    w_hc = op.genshi_hypercyclic_weights(2.0, 3)
    results["genshi-hc"] = cr.salas_hypercyclic(w_hc, m_max, n_max)
    w_sc = op.genshi_supercyclic_weights(2.0, 3)
    results["genshi-sc"] = cr.salas_supercyclic(w_sc, m_max, n_max)
    results["const-1"] = cr.salas_hypercyclic(op.constant_weights(1.0), m_max, n_max)
    results["const-2"] = cr.salas_hypercyclic(op.constant_weights(2.0), m_max, n_max)
    results["sym-decay"] = cr.salas_supercyclic(op.symmetric_decay_weights(), m_max, n_max)
    verdicts_ok = (
        results["genshi-hc"].verdict == "satisfied"
        and results["genshi-sc"].verdict == "satisfied"
        and results["const-1"].verdict == "violated-at-horizon"
        and results["const-2"].verdict == "violated-at-horizon"
        and results["sym-decay"].verdict == "violated-at-horizon"
    )

    # trace agreement with exact log-product oracles (all weights dyadic)
    def hc_exp(j):
        return 1 if j > 3 else (-1 if j < -3 else 0)

    def sc_exp(j):
        return 1 if j > 3 else (0 if j >= -3 else 0)  # c=2 right, c/2=1 left

    def sym_exp(j):
        return -abs(j)

    trace_err = 0.0
    for key, fn in (
        ("genshi-hc", hc_exp),
        ("genshi-sc", sc_exp),
        ("sym-decay", sym_exp),
    ):
        variant = results[key].variant
        oracle = _exact_log_trace_oracle(fn, m_max, n_max, variant)
        scale = np.maximum(1.0, np.abs(oracle))
        trace_err = max(
            trace_err, float(np.max(np.abs(results[key].log_traces - oracle) / scale))
        )
    elapsed = time.time() - start
    ok = verdicts_ok and trace_err <= 1e-12 and elapsed < 10.0
    assert _report(
        "7 salas-criteria",
        ok,
        f"verdicts={verdicts_ok}, trace err={trace_err:.2e}, {elapsed:.1f}s",
    )


def test_c08_region_verdicts():
    expected = {
        ("U", "shift1"): "intersects-circle",
        ("U", "exp"): "inside-disk",
        ("V", "shift1"): "outside-closed-disk",
        ("V", "exp"): "intersects-circle",
    }
    ok = True
    for seed in range(5):
        for (reg, tr), want in expected.items():
            v = cr.gs_region_verdict(cr.builtin_region(reg), tr, 10**5, seed=seed)
            ok &= v.verdict == want and v.exact
            if (reg, tr) == ("U", "shift1"):
                ok &= abs(abs(1 + v.witnesses[0]) - 1.0) == 0.0
    assert _report("8 region-verdicts", ok, "four facts x five seeds, exact + sampled")


def test_c09_symmetry_obstructions():
    w = op.symmetric_decay_weights()
    worst = 0.0
    ok = True
    for coeffs in ([0.0, 1.0], [1.0, 1.0]):  # p = t and p = 1 + t
        rep = cr.symmetry_obstruction(w, coeffs, trials=100, horizon=50, seed=0)
        ok &= rep.verdict == "holds" and rep.similarity_exact
        worst = max(worst, rep.max_residual)
    ok &= worst <= 1e-9
    n = 6
    t = op.bilateral_shift(op.constant_weights(1.0, n), n)
    rep_b = cr.b_symmetry_check(
        t, op.flip_matrix(n), unit(n, 2 * n + 1), unit(n + 1, 2 * n + 1), horizon=50
    )
    ok &= rep_b.symmetric and rep_b.annihilator_residual <= 1e-9
    assert _report(
        "9 symmetry-obstructions",
        ok,
        f"orthogonality residual={worst:.2e}, annihilator={rep_b.annihilator_residual:.2e}",
    )


def test_c10_grading():
    gens = [gr.GradedVector([RationalFunction(Poly.monomial(d))]) for d in range(3)]
    rep = gr.n0_bound(gens)
    ok = rep.n0 == 3 and rep.counterexample_degree == 2 and rep.counterexample is not None
    for d in range(3, 13):  # every monomial degree >= n0 = 3 meets L trivially
        ok &= gr.monomial_intersection(gens, d) is None
    rng = np.random.default_rng(10)
    count = 0
    while count < 1000:
        x = gr.random_graded_vector(rng, 2, 3)
        if x.is_zero():
            continue
        p = Poly([int(rng.integers(-5, 6)) for _ in range(4)])
        if p.is_zero():
            continue
        ok &= x.apply_poly(p).delta() == x.delta() + p.degree
        count += 1
    assert _report("10 grading", ok, "n0 = 3, 10^3 exact delta cases")


def test_c11_volterra():
    trace1 = dyn.volterra_dist(2048, 0.5, n_max=40)
    trace2 = dyn.volterra_dist(2048, 0.5, n_max=40)
    dmin = min(d / trace1.f_norm for d in trace1.distances)
    bytes1 = canonical_json(trace1.to_dict())
    bytes2 = canonical_json(trace2.to_dict())
    ok = (
        trace1.adjoint_residual <= 1e-8
        and dmin <= 0.05
        and bytes1 == bytes2
    )
    assert _report(
        "11 volterra",
        ok,
        f"|V*h'+h|={trace1.adjoint_residual:.2e}, min d_n/|f|={dmin:.2e}, "
        f"byte-stable={bytes1 == bytes2}",
    )


def test_c12_group_law_on_generators():
    count = math.comb(8 + 2, 2)  # all |m| <= 8, k = 2
    mats = op.saan_generators(2, count)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(5):
        z = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, 2)
        worst = max(worst, dyn.group_law_residual(mats, z, w))
    ok = worst <= 1e-10
    assert _report("12a group-law", ok, f"residual={worst:.2e} on {count} basis vectors")


def test_c12_transitivity_at_horizon():
    # As stated: residuals <= 1e-6 at k = 2^12 for T = I + S on K^8.  The
    # twisted approach-pair construction has error Theta(1/k) (first tail
    # coordinate of the chain solve): k * residual is about 2.83 for u and
    # 4.12 for v, i.e. 6.9e-4 and 1.0e-3 at k = 4096 (pinned by
    # test_c12_transitivity_rate), so the stated tolerance is unattainable;
    # expected to FAIL (see ledger).
    t = np.eye(8) + nil.backward_shift(8)
    pair = dyn.transitivity_pair(t, unit(0, 8), unit(1, 8), 2**12)
    worst = max(pair.residual_u, pair.residual_v)
    ok = worst <= 1e-6
    assert _report("12b transitivity", ok, f"residuals=({pair.residual_u:.2e}, {pair.residual_v:.2e})"), (
        f"residuals at k=2^12 are {worst:.2e}; the construction's error is "
        "Theta(1/k), about 2.83/k and 4.12/k, making 1e-6 unattainable (see "
        "decisions ledger)"
    )


def test_c12_transitivity_rate():
    # The constants behind the red test above: k * residual for (u, v)
    # settles near (2.83, 4.12) from k = 2^8 on.
    t = np.eye(8) + nil.backward_shift(8)
    for k in (2**8, 2**12):
        pair = dyn.transitivity_pair(t, unit(0, 8), unit(1, 8), k)
        assert k * pair.residual_u == pytest.approx(2.83, rel=0.05)
        assert k * pair.residual_v == pytest.approx(4.12, rel=0.05)


def test_c12_u3_density_regression():
    w = op.genshi_supercyclic_weights()
    t = op.bilateral_shift(w, 10)
    net = dyn.NetSpec(cells=6, box=4.0, x_coord=10, y_coord=10)

    def coverage(seed):
        return dyn.u3_density(
            t, net, horizon=1000, seed=seed, scale_grid=dyn.default_scale_grid(), base_count=40
        ).fraction

    shipped = coverage(7)
    others = [coverage(s) for s in range(10)]
    spread = max(others) - min(others)
    ok = shipped >= 0.9 and spread <= 0.04
    assert _report(
        "12c u3-density", ok, f"shipped-seed coverage={shipped:.3f}, spread={spread:.3f}"
    )
