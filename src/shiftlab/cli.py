"""Reproducible experiment runner.

One subcommand per artifact; every run is fully determined by its flags and
seed.  Exit status: 0 for an affirmative verdict, 2 when the run succeeded
but the verdict is negative (violated / inapplicable / indeterminate / no
hits), 1 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import criteria as cr
from . import dynamics as dyn
from . import grading as gr
from . import nilpotent as nil
from . import operators as op
from .errors import InputError, ShiftlabError
from .rational import Poly, RationalFunction, _nearest_ratio
from .reports import (
    ExperimentReport,
    canonical_json,
    default_output_dir,
    trace_csv,
    write_text,
)

NEGATIVE_VERDICTS = {
    "violated-at-horizon",
    "inconclusive",
    "inapplicable",
    "indeterminate",
    "mismatch",
    "no-hits",
    "not-b-symmetric",
}


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


_nonneg_int = _int_at_least(0)
_positive_int = _int_at_least(1)


def _k_max_exp(text: str) -> int:
    """argparse type for kerim --k-max-exp: an integer e with 2 <= e <= 1023.

    The sweep runs k = 2^2 .. 2^e and the twisted pair takes z ** (-k),
    which needs k as a float; 2^1024 is past the float range.
    """
    value = _int_at_least(2)(text)
    if value > 1023:
        raise argparse.ArgumentTypeError(f"expected an integer <= 1023, got {text!r}")
    return value


def _positive_ints(text: str) -> list[int]:
    """argparse type: comma-separated positive integers, e.g. 4,16,64."""
    return [_positive_int(part) for part in text.split(",")]


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected an exact rational, got {text!r}") from None


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _fraction_of_one(text: str) -> float:
    """argparse type: a coverage fraction t with 0 < t <= 1."""
    value = _finite_float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1], got {text!r}")
    return value


def _load_json(path: str, what: str):
    """Parse the JSON file at ``path``; invalid JSON is an InputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InputError(f"{what} {path} is not valid JSON: {exc}") from None


# --weights family -> its WeightSequence from the parsed flags; a value
# "file:PATH" names a JSON weight file instead
WEIGHT_FAMILIES = {
    "genshi-hc": lambda args: op.genshi_hypercyclic_weights(args.c, args.m0),
    "genshi-sc": lambda args: op.genshi_supercyclic_weights(args.c, args.m0),
    "const": lambda args: op.constant_weights(args.value),
    "symmetric-decay": lambda args: op.symmetric_decay_weights(),
}


def _weights_from_args(args) -> op.WeightSequence:
    kind = args.weights
    if kind.startswith("file:"):
        return op.WeightSequence.from_dict(_load_json(kind[5:], "weight file"))
    if kind not in WEIGHT_FAMILIES:
        raise ShiftlabError(f"unknown weight family {kind!r}")
    return WEIGHT_FAMILIES[kind](args)


def cmd_detan(args) -> ExperimentReport:
    cells = []
    exact = True
    for n in range(1, args.max_n + 1):
        for k in range(1, args.max_k + 1):
            rec, direct = nil.det_mnk(n, k)
            same = rec == direct
            exact &= same
            cells.append({"n": n, "k": k, "value": str(rec), "match": same})
    return ExperimentReport(
        "detan",
        {"max_n": args.max_n, "max_k": args.max_k},
        verdict="recurrence = direct" if exact else "mismatch",
        data={"cells": cells},
    )


def cmd_jordan(args) -> ExperimentReport:
    rng = np.random.default_rng(args.seed)
    rows = []
    worst_exact = 0.0
    exact_zero = True  # every residual exactly 0, decided on the integers
    bound_ok = True
    for n in range(1, args.n_max + 1):
        for _ in range(args.pairs):
            # the heads u, then v: each draw's nearest ratio with denominator
            # at most 2^20, cleared over their lcm
            draws = (*rng.uniform(0, 1, n), *rng.uniform(0, 1, n))
            ratios = [_nearest_ratio(x, 2**20) for x in draws]
            dh = math.lcm(*(q for _, q in ratios))
            heads = [p * (dh // q) for p, q in ratios]
            for e in range(1, args.z_max_exp + 1):
                # z = 2^e as an int: the caches key it equal to Fraction(2) ** e
                x, d = nil._jordan_ints(n, 1 << e, heads, dh)
                # each squared residual s / dd^2, rounded once as float(Fraction)
                # is; s = 0 rounds to 0.0, which leaves the worst one as it is
                for s, dd in (
                    nil._squared_distance(x, d, heads[:n], dh),
                    nil._head_residual(n, 1 << e, x, d, heads[n:], dh),
                ):
                    if s:
                        exact_zero = False
                        worst_exact = max(worst_exact, s / (dd * dd))
                tail = x[n:]  # over d > 0
                if e == 1:
                    # data at |z| = 2 underestimates the uniform constant;
                    # apply the standard 16x margin (observed worst ~9)
                    c_fit = max(abs(t / d) * 2.0**j for j, t in enumerate(tail, 1))
                    bound = 16.0 * (c_fit + 1e-12)
                else:
                    # |x_(n+j)| z^j against the bound: scaling by z^j = 2^(ej)
                    # is exact, so no float underflow decides the check
                    for j, t in enumerate(tail, 1):
                        if abs(t << (e * j)) / d > bound:
                            bound_ok = False
        rows.append({"n": n, "worst_residual": worst_exact, "decay_bound_ok": bound_ok})
    verdict = "satisfied" if exact_zero and bound_ok else "violated-at-horizon"
    return ExperimentReport(
        "jordan",
        {
            "n_max": args.n_max,
            "pairs": args.pairs,
            "z_max_exp": args.z_max_exp,
        },
        seed=args.seed,
        verdict=verdict,
        data={"rows": rows},
        trace=rows,
    )


# tensor --mode -> (the point z(m) of step m, the coordinates of z(m) that
# escape as m grows), from --dims: every block at m, all escaping, or the
# first block at m and the others held at 1, only the first escaping
TENSOR_MODES = {
    "diag": lambda dims, m: (tuple(float(m) for _ in dims), set(range(len(dims)))),
    "bounded": lambda dims, m: (tuple(float(m) if j == 0 else 1.0 for j in range(len(dims))), {0}),
}


def cmd_tensor(args) -> ExperimentReport:
    dims = tuple(args.dims)
    tt = nil.TensorShiftTuple(dims)
    u = np.zeros(tt.dim)
    u[0] = 1.0
    v = u.copy()
    rows = []
    for m in args.steps:
        r1, r2 = nil.tensor_approach_residuals(tt, *TENSOR_MODES[args.mode](dims, m), u, v)
        rows.append({"m": m, "residual_u": r1, "residual_v": r2})
    decreasing = all(
        rows[i]["residual_u"] >= rows[i + 1]["residual_u"] - 1e-12
        for i in range(len(rows) - 1)
    )
    return ExperimentReport(
        "tensor",
        {"dims": list(dims), "mode": args.mode, "steps": args.steps},
        verdict="satisfied" if decreasing else "inconclusive",
        data={"rows": rows},
        trace=rows,
    )


def cmd_kerim(args) -> ExperimentReport:
    z = args.z
    a = nil.backward_shift(2 * args.n)
    x = np.zeros(2 * args.n)
    x[args.n - 1] = 1.0  # top of the length-n chain
    ks = [2**e for e in range(2, args.k_max_exp + 1)]
    rows, trace = [], []
    for k, res in zip(ks, nil.unimodular_residuals(a, z, x, ks)):
        if not all(map(math.isfinite, res)):
            break  # past the float range: no measurement, the sweep ends
        rows.append({"k": k, "residuals": list(res)})
        trace.append({"k": k, **{f"residual_{i}": r for i, r in enumerate(res)}})
    if len(rows) < len(ks):
        verdict = "indeterminate"
    elif max(rows[-1]["residuals"]) < max(rows[0]["residuals"]):
        verdict = "satisfied"
    else:
        verdict = "inconclusive"
    return ExperimentReport(
        "kerim",
        {"n": args.n, "z": [z.real, z.imag], "k_max_exp": args.k_max_exp},
        verdict=verdict,
        data={"rows": rows},
        trace=trace,
    )


def cmd_salas(args) -> ExperimentReport:
    w = _weights_from_args(args)
    fn = cr.salas_hypercyclic if args.variant == "hypercyclic" else cr.salas_supercyclic
    cert = fn(w, args.m_max, args.n_max, args.tol)
    return ExperimentReport(
        "salas",
        {
            "weights": args.weights,
            "variant": args.variant,
            "m_max": args.m_max,
            "n_max": args.n_max,
            "tol": args.tol,
            "c": args.c,
            "m0": args.m0,
        },
        verdict=cert.verdict,
        data=cert.to_dict(full_traces=args.full_traces),
    )


# subspaces --op preset -> its operator, from --n and --seed
SUBSPACE_OPERATORS = {
    "shift": lambda n, seed: nil.backward_shift(2 * n),
    "unipotent": lambda n, seed: np.eye(2 * n) + nil.backward_shift(2 * n),
    "diag": lambda n, seed: np.diag(
        np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, n))
    ),
}


def cmd_subspaces(args) -> ExperimentReport:
    if args.which == "ebsk":
        tt = nil.TensorShiftTuple(tuple(args.dims))
        space = cr.ebs_tuple_kernel(tt.operators(), tol=args.tol)
        data = {"dim": space.dim, "ambient": space.ambient}
        verdict = "nontrivial" if space.dim else "trivial"
    else:
        t = SUBSPACE_OPERATORS[args.op](args.n, args.seed)
        space = (
            cr.ker_dagger(t, args.tol)
            if args.which == "kerdagger"
            else cr.lambda_t(t, args.tol)
        )
        data = {"dim": space.dim, "ambient": space.ambient}
        verdict = "nontrivial" if space.dim else "trivial"
    return ExperimentReport(
        "subspaces",
        {"which": args.which, "op": args.op, "n": args.n, "tol": args.tol},
        seed=args.seed,
        verdict=verdict,
        data=data,
    )


def _shaped_nilpotent_tensor(rng, dim: int):
    """Random exact tensor element with T^2 = 0 and room for the ladder."""

    def unit(i, c):
        v = [0] * dim
        v[i] = c
        return v

    c1 = Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    c2 = -Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    pairs = ((unit(dim - 5, c1), unit(0, 1)), (unit(dim - 4, c2), unit(1, 1)))
    xi = op.TensorElement(pairs, [unit(i, 1) for i in range(dim)])
    return xi, unit(dim - 3, 1), unit(dim - 2, 1)


def _maps_to(t, u, i: int, c: Fraction, x) -> bool:
    """Whether T u_i == c x, exactly, for row i of u: T on its cleared
    integers against u's."""
    rows, den = u.cleared()
    ints, den = t._matvec(rows[i], den)
    p, q = c.numerator, c.denominator
    return all(a * q == p * b * den for a, b in zip(ints, x))


def cmd_perturb(args) -> ExperimentReport:
    rng = np.random.default_rng(args.seed)
    s = args.s
    all_exact = True
    rows = []
    for trial in range(args.trials):
        xi, x1, x2 = _shaped_nilpotent_tensor(rng, args.dim)
        pert = cr.ebs_perturb(xi, x1, x2, s, n=2)
        t_s = op.tensor_t(pert.xi_s)
        t2 = t_s @ t_s
        ok1 = _maps_to(t2, pert.u, pert.n - 1, s**2, x1)
        ok2 = _maps_to(t2, pert.u, 2 * pert.n - 1, s**2, x2)
        ok3 = (t2 @ t2).is_zero()
        all_exact &= ok1 and ok2 and ok3
        rows.append({"trial": trial, "chain": ok1 and ok2, "nilpotent": ok3})
    return ExperimentReport(
        "perturb",
        {"dim": args.dim, "s": str(s), "trials": args.trials},
        seed=args.seed,
        verdict="exact" if all_exact else "mismatch",
        data={"rows": rows},
    )


def cmd_regions(args) -> ExperimentReport:
    region = cr.builtin_region(args.builtin)
    verdict = cr.gs_region_verdict(region, args.transform, args.samples, args.seed)
    return ExperimentReport(
        "regions",
        {
            "builtin": args.builtin,
            "transform": args.transform,
            "samples": args.samples,
        },
        seed=args.seed,
        verdict=verdict.verdict,
        data=verdict.to_dict(),
    )


def cmd_symmetry(args) -> ExperimentReport:
    if args.mode == "weights":
        w = _weights_from_args(args)
        coeffs = {"t": [0.0, 1.0], "1+t": [1.0, 1.0]}[args.p]
        rep = cr.symmetry_obstruction(
            w, coeffs, trials=args.trials, horizon=args.N, seed=args.seed
        )
        return ExperimentReport(
            "symmetry",
            {
                "mode": "weights",
                "weights": args.weights,
                "p": args.p,
                "trials": args.trials,
                "N": args.N,
            },
            seed=args.seed,
            verdict=rep.verdict,
            data=rep.to_dict(),
        )
    n = args.n
    t = op.bilateral_shift(op.constant_weights(1.0, n), n)
    b = op.flip_matrix(n)
    x = np.eye(2 * n + 1)[n]
    y = np.eye(2 * n + 1)[n + 1]
    rep = cr.b_symmetry_check(t, b, x, y, horizon=args.N, seed=args.seed)
    return ExperimentReport(
        "symmetry",
        {"mode": "pairing", "n": n, "N": args.N},
        seed=args.seed,
        verdict="b-symmetric" if rep.symmetric else "not-b-symmetric",
        data=rep.to_dict(),
    )


def _random_grading_family(degree: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [gr.random_graded_vector(rng, 2, degree) for _ in range(3)]


# grading --preset -> its generators, from --degree and --seed
GRADING_PRESETS = {
    "powers": lambda degree, seed: [
        gr.GradedVector([RationalFunction(Poly.monomial(d))]) for d in range(degree + 1)
    ],
    "split": lambda degree, seed: [
        gr.GradedVector([RationalFunction.one(), RationalFunction.zero()]),
        gr.GradedVector([RationalFunction.zero(), RationalFunction(Poly.monomial(degree))]),
    ],
    "random": _random_grading_family,
}


def cmd_grading(args) -> ExperimentReport:
    rep = gr.n0_bound(GRADING_PRESETS[args.preset](args.degree, args.seed))
    return ExperimentReport(
        "grading",
        {"preset": args.preset, "degree": args.degree},
        seed=args.seed,
        verdict="verified",
        data={
            "delta_plus": rep.delta_plus,
            "delta_minus": rep.delta_minus,
            "n0": rep.n0,
            "verified_degrees": list(rep.verified_degrees),
            "counterexample_degree": rep.counterexample_degree,
        },
    )


def cmd_mixing(args) -> ExperimentReport:
    n = args.n
    t = np.eye(2 * n) + nil.backward_shift(2 * n)
    u_c = np.zeros(2 * n)
    u_c[0] = 1.0
    v_c = np.zeros(2 * n)
    v_c[min(1, 2 * n - 1)] = 1.0
    rep = dyn.mixing_window(
        t,
        dyn.Ball(u_c, args.radius),
        dyn.Ball(v_c, args.radius),
        args.horizon,
        seed=args.seed,
    )
    verdict = "mixing-window-found" if rep.first_window_start is not None else "no-hits"
    return ExperimentReport(
        "mixing",
        {"n": n, "radius": args.radius, "horizon": args.horizon},
        seed=args.seed,
        verdict=verdict,
        data=rep.to_dict(),
        trace=[{"n": n, "hit": bool(h)} for n, h in enumerate(rep.hits, 1)],
    )


def cmd_density(args) -> ExperimentReport:
    if args.family == "genshi-sc":
        w = op.genshi_supercyclic_weights()
        half = 10
        t = op.bilateral_shift(w, half)
        net = dyn.NetSpec(cells=args.cells, box=args.box, x_coord=half, y_coord=half)
        rep = dyn.u3_density(
            t,
            net,
            args.horizon,
            seed=args.seed,
            scale_grid=dyn.default_scale_grid(),
            base_count=40,
        )
    else:
        dim = 9
        net = dyn.NetSpec(cells=args.cells, box=args.box, x_coord=0, y_coord=0)
        rep = dyn.u3_density(np.eye(dim), net, args.horizon, seed=args.seed)
    verdict = "dense-at-net" if rep.fraction >= args.threshold else "inconclusive"
    return ExperimentReport(
        "density",
        {
            "family": args.family,
            "horizon": args.horizon,
            "cells": args.cells,
            "box": args.box,
            "threshold": args.threshold,
        },
        seed=args.seed,
        verdict=verdict,
        data=rep.to_dict(),
    )


def load_grid_function(path: str, ngrid: int):
    """Grid function from the documented JSON form: {"values": [...]}"""
    data = _load_json(path, "grid function")
    if not isinstance(data, dict) or "values" not in data:
        raise InputError(f'grid function {path} must be a JSON object {{"values": [...]}}')
    try:
        values = np.asarray(data["values"], dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.ndim != 1 or not np.all(np.isfinite(values)):
        raise InputError(f'grid function {path}: "values" must be a list of finite numbers')
    if values.shape[0] != ngrid + 1:
        raise ShiftlabError(
            f"grid function has {values.shape[0]} samples; expected ngrid+1 = {ngrid + 1}"
        )
    return values


def _distance_rows(trace: dyn.DistanceTrace) -> list[dict]:
    return [{"n": n, "d_n": d} for n, d in enumerate(trace.distances)]


def cmd_volterra(args) -> ExperimentReport:
    f = load_grid_function(args.f_file, args.ngrid) if args.f_file else None
    trace = dyn.volterra_dist(args.ngrid, args.q, f=f, n_max=args.n_max)
    if trace.f_norm == 0.0:
        # f is zero, or so small that f * f underflows, as the bump on a
        # short (0, q) is: no distance relative to ||f|| exists
        what = f"--f-file: grid function {args.f_file}" if args.f_file else f"--q: the bump on (0, {args.q})"
        raise InputError(f"argument {what} has zero norm on the grid")
    dmin = min(d / trace.f_norm for d in trace.distances if d is not None)
    # 1e-8 is the contract at ngrid = 2048; the leading trapezoid cells of
    # the adjoint quadrature scale cubically, so rescale for other grids
    adjoint_tol = 1e-8 * (2048.0 / args.ngrid) ** 3
    verdict = (
        "satisfied"
        if trace.adjoint_residual <= adjoint_tol and dmin <= 0.05
        else "violated-at-horizon"
    )
    return ExperimentReport(
        "volterra",
        {"ngrid": args.ngrid, "q": args.q, "n_max": args.n_max},
        verdict=verdict,
        data=trace.to_dict(),
        trace=_distance_rows(trace),
    )


def _sparse_product(a: list[dict], b: list[dict]) -> list[dict]:
    """The columns of A B, each ``{row: entry}`` with zeros dropped, from
    the columns of A and B in that form."""
    out = []
    for col in b:
        acc = {}
        for r, v in col.items():
            for i, w in a[r].items():
                acc[i] = acc.get(i, 0) + w * v
        out.append({i: x for i, x in acc.items() if x})
    return out


def _all_commute(gens) -> bool:
    """Whether the generators commute pairwise, exactly.  Each is a list of
    sparse integer columns ``{row: numerator}`` over its own denominator
    d_i, so A_i A_j and A_j A_i share d_i d_j and the products of the
    numerators decide."""
    return all(
        _sparse_product(a, b) == _sparse_product(b, a) for a, b in itertools.combinations(gens, 2)
    )


def cmd_saan_group(args) -> ExperimentReport:
    count = math.comb(args.degree + args.k, args.k)  # all |m| <= degree
    mats = op.saan_generators(args.k, count)
    rng = np.random.default_rng(args.seed)
    z = rng.uniform(-1, 1, args.k)
    w = rng.uniform(-1, 1, args.k)
    residual = dyn.group_law_residual(mats, z, w)
    comm_zero = _all_commute(op._saan_columns(args.k, count)[0])
    verdict = "satisfied" if residual <= 1e-10 and comm_zero else "violated-at-horizon"
    return ExperimentReport(
        "saan-group",
        {"k": args.k, "degree": args.degree, "basis": count},
        seed=args.seed,
        verdict=verdict,
        data={"group_law_residual": residual, "commutators_exact_zero": comm_zero},
    )


def _write(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    write_text(path, text)
    return path


def _golden_nilpotent(out_dir: str) -> list[str]:
    rows = []
    for n in (1, 2, 3):
        for j in (4, 64, 1024):
            r1, r2 = nil.discrete_pair_errors_exact(
                n, j, [Fraction(1)] + [Fraction(0)] * (n - 1), [Fraction(0)] * n
            )
            rows.append({"n": n, "j": j, "err_u": r1, "err_v": r2})
    text = canonical_json({"suite": "nilpotent", "rows": rows})
    return [_write(out_dir, "nilpotent_residuals.json", text)]


def _golden_volterra(out_dir: str) -> list[str]:
    trace = dyn.volterra_dist(512, 0.5, n_max=24)
    return [
        _write(out_dir, "volterra_dist.csv", trace_csv(_distance_rows(trace))),
        _write(out_dir, "volterra_meta.json", canonical_json(trace.to_dict())),
    ]


def _golden_salas(out_dir: str) -> list[str]:
    out = {
        name: fn(w, 4, 2**10).to_dict()
        for name, w, fn in (
            ("genshi-hc", op.genshi_hypercyclic_weights(), cr.salas_hypercyclic),
            ("genshi-sc", op.genshi_supercyclic_weights(), cr.salas_supercyclic),
            ("const-1", op.constant_weights(1.0), cr.salas_hypercyclic),
        )
    }
    return [_write(out_dir, "salas_certificates.json", canonical_json(out))]


def _golden_regions(out_dir: str) -> list[str]:
    out = {
        f"{reg}/{tr}": cr.gs_region_verdict(cr.builtin_region(reg), tr, 10**4, seed=0).to_dict()
        for reg, tr in (("U", "shift1"), ("U", "exp"), ("V", "shift1"), ("V", "exp"))
    }
    return [_write(out_dir, "region_verdicts.json", canonical_json(out))]


# suite -> writer of its golden files (returns the paths in write order)
GOLDEN_WRITERS = {
    "nilpotent": _golden_nilpotent,
    "volterra": _golden_volterra,
    "salas": _golden_salas,
    "regions": _golden_regions,
}
GOLDEN_SUITES = tuple(GOLDEN_WRITERS)


def emit_goldens(suite: str, out_dir: str) -> list[str]:
    """Regenerate golden files for a regression suite; byte-stable per seed."""
    if suite not in GOLDEN_WRITERS:
        raise ShiftlabError(f"unknown golden suite {suite!r}; have {GOLDEN_SUITES}")
    os.makedirs(out_dir, exist_ok=True)
    return GOLDEN_WRITERS[suite](out_dir)


def cmd_emit_goldens(args) -> ExperimentReport:
    out_dir = args.out_dir if args.out_dir is not None else default_output_dir() or "goldens"
    files = emit_goldens(args.suite, out_dir)
    return ExperimentReport(
        "emit-goldens",
        {"suite": args.suite, "out_dir": out_dir},
        verdict="written",
        data={"files": files},
    )


def argv_from_config(path: str) -> list[str]:
    """Translate the documented JSON config form into an argv list.

    The config mirrors the flags: {"command": "salas", "out": ..., "format":
    ..., "args": {"weights": "genshi-hc", "n-max": 4096, "full-traces":
    true}}.  "out" and "format" go before the command, each entry of "args"
    after it; boolean values toggle flag presence.
    """
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InputError("config file must hold a JSON object")
    if "command" not in cfg:
        raise ShiftlabError("config file must name a command")
    args = cfg.get("args", {})
    if not isinstance(args, dict):
        raise InputError('"args" must be a JSON object of flag names to values')
    argv = []
    for key in ("out", "format"):
        if key in cfg and cfg[key] is not None:
            argv.extend([f"--{key}", str(cfg[key])])
    argv.append(str(cfg["command"]))
    for key, value in args.items():
        flag = f"--{key}"
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return argv


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shiftlab parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Desk-scale experiments on hypercyclic/mixing operator dynamics",
        epilog=(
            "A JSON config mirroring the flags can replace the command line: "
            'shiftlab --config cfg.json, with cfg.json like {"command": '
            '"salas", "args": {"weights": "genshi-hc", "n-max": 4096}}. '
            "Reports land in $SHIFTLAB_OUTDIR when set and no --out is given."
        ),
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument(
        "--format",
        choices=("json", "csv", "jsonl"),
        default="json",
        help="report format (csv/jsonl need a trace-bearing subcommand)",
    )
    # the same options are accepted after the subcommand; SUPPRESS keeps the
    # child from clobbering a value parsed before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument(
        "--format", choices=("json", "csv", "jsonl"), default=argparse.SUPPRESS
    )

    # the weight family shared by salas and symmetry
    weight_flags = argparse.ArgumentParser(add_help=False)
    weights = weight_flags.add_argument(
        "--weights", help=" | ".join([*WEIGHT_FAMILIES, "file:PATH"])
    )
    weight_flags.add_argument("--c", type=_finite_float, default=2.0)
    weight_flags.add_argument("--m0", type=_positive_int, default=3)
    weight_flags.add_argument("--value", type=_finite_float, default=1.0)

    sub = parser.add_subparsers(dest="command", required=True)

    def sub_parser(name, *parents, **kw):
        return sub.add_parser(name, parents=[common, *parents], **kw)

    p = sub_parser("detan", help="determinant recurrence vs direct exact sweep")
    p.add_argument("--max-n", type=_positive_int, default=8)
    p.add_argument("--max-k", type=_positive_int, default=8)
    p.set_defaults(fn=cmd_detan)

    p = sub_parser("jordan", help="approach-pair solver residuals and tail decay")
    p.add_argument("--n-max", type=_positive_int, default=3)
    p.add_argument("--pairs", type=_positive_int, default=10)
    p.add_argument("--z-max-exp", type=_positive_int, default=10)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.set_defaults(fn=cmd_jordan)

    p = sub_parser("tensor", help="tensor-tuple approach residual trace")
    p.add_argument("--dims", type=_positive_ints, default="1,1")
    p.add_argument("--mode", choices=tuple(TENSOR_MODES), default="diag")
    p.add_argument("--steps", type=_positive_ints, default="4,16,64,256")
    p.set_defaults(fn=cmd_tensor)

    p = sub_parser("kerim", help="unimodular twisted approach residuals")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--z", type=complex, default="1", help="unimodular complex (python literal)")
    p.add_argument("--k-max-exp", type=_k_max_exp, default=10)
    p.set_defaults(fn=cmd_kerim)

    p = sub_parser("salas", weight_flags, help="weight-product criteria with certificates")
    p.add_argument("--variant", choices=("hypercyclic", "supercyclic"), default="hypercyclic")
    p.add_argument("--m-max", type=_positive_int, default=8)
    p.add_argument("--n-max", type=_positive_int, default=2**14)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument(
        "--full-traces", action="store_true", help="embed the full log traces"
    )
    p.set_defaults(fn=cmd_salas, weights="genshi-hc")

    p = sub_parser("subspaces", help="ker-dagger / unimodular-chain / EBS spans")
    p.add_argument("--which", choices=("kerdagger", "lambda", "ebsk"), default="kerdagger")
    p.add_argument("--op", choices=tuple(SUBSPACE_OPERATORS), default="shift")
    p.add_argument("--n", type=_positive_int, default=3)
    p.add_argument("--dims", type=_positive_ints, default="1,1", help="tensor block dims for ebsk")
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.set_defaults(fn=cmd_subspaces)

    p = sub_parser("perturb", help="exact nilpotent tensor perturbation identities")
    # the shaped tensor's size-4 ladder needs 10 coordinates: below that its
    # units wrap (dim < 5) or the ladder is infeasible
    p.add_argument("--dim", type=_int_at_least(10), default=10)
    p.add_argument("--s", type=_fraction, default="1/2", help="exact rational scale")
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.set_defaults(fn=cmd_perturb)

    p = sub_parser("regions", help="plane-region vs unit-circle verdicts")
    p.add_argument("--builtin", choices=("U", "V"), default="U")
    p.add_argument("--transform", choices=("shift1", "exp", "identity"), default="shift1")
    p.add_argument("--samples", type=_positive_int, default=10**5)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.set_defaults(fn=cmd_regions)

    p = sub_parser("symmetry", weight_flags, help="symmetry obstructions to cyclicity")
    p.add_argument("--mode", choices=("weights", "pairing"), default="weights")
    p.add_argument("--p", choices=("t", "1+t"), default="1+t")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--N", type=_positive_int, default=50)
    p.add_argument("--n", type=_positive_int, default=6)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.set_defaults(fn=cmd_symmetry, weights="symmetric-decay")
    # set_defaults also writes onto the --weights action, which both commands
    # share through the parent; SUPPRESS leaves each its own parser default
    weights.default = argparse.SUPPRESS

    p = sub_parser("grading", help="degree bounds n0 in the rational-function model")
    p.add_argument("--preset", choices=tuple(GRADING_PRESETS), default="powers")
    p.add_argument("--degree", type=_nonneg_int, default=2)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.set_defaults(fn=cmd_grading)

    p = sub_parser("mixing", help="mixing-window hit report for I + shift")
    p.add_argument("--n", type=_positive_int, default=3)
    p.add_argument("--radius", type=_finite_float, default=0.25)
    p.add_argument("--horizon", type=_positive_int, default=40)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.set_defaults(fn=cmd_mixing)

    p = sub_parser("density", help="pair-set net coverage (universality probe)")
    p.add_argument("--family", choices=("genshi-sc", "identity"), default="genshi-sc")
    p.add_argument("--horizon", type=_positive_int, default=1000)
    p.add_argument("--cells", type=_positive_int, default=6)
    p.add_argument("--box", type=_finite_float, default=4.0)
    p.add_argument("--threshold", type=_fraction_of_one, default=0.9)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.set_defaults(fn=cmd_density)

    p = sub_parser("volterra", help="adjoint identity and distance trace")
    p.add_argument("--ngrid", type=_positive_int, default=2048)
    p.add_argument("--q", type=_finite_float, default=0.5)
    p.add_argument("--n-max", type=_positive_int, default=40)
    p.add_argument(
        "--f-file", default=None, help='JSON grid function {"values": [...]}'
    )
    p.set_defaults(fn=cmd_volterra)

    p = sub_parser("saan-group", help="commuting generators and the group law")
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--degree", type=_nonneg_int, default=8, help="multi-index degree box")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.set_defaults(fn=cmd_saan_group)

    p = sub_parser("emit-goldens", help="regenerate golden regression files")
    p.add_argument("--suite", choices=GOLDEN_SUITES, required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_emit_goldens)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv[:1] == ["--config"] or (argv and argv[0].startswith("--config=")):
        try:
            if argv[0].startswith("--config="):
                path, rest = argv[0].split("=", 1)[1], argv[1:]
            else:
                path, rest = argv[1], argv[2:]
            argv = argv_from_config(path) + rest
        except (ShiftlabError, OSError, ValueError, KeyError, IndexError) as exc:
            print(f"error: bad config: {exc}", file=sys.stderr)
            return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the runner contract reserves 2
        # for negative verdicts and reports input errors as 1
        return 0 if exc.code in (0, None) else 1
    try:
        report = args.fn(args)
    except (ShiftlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.format == "json":
        text = report.to_json()
    elif not report.trace:
        print(
            "error: this subcommand has no trace rows; use --format json",
            file=sys.stderr,
        )
        return 1
    elif args.format == "csv":
        text = trace_csv(report.trace)
    else:
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in report.trace)

    out = args.out
    if out is None and default_output_dir():
        out = os.path.join(
            default_output_dir(), f"{report.command}.{args.format}"
        )
    if out:
        try:
            write_text(out, text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 2 if report.verdict in NEGATIVE_VERDICTS else 0


if __name__ == "__main__":
    sys.exit(main())
