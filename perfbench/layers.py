"""Which shiftlab functions the traced run wraps, and the per-layer metrics.

A layer is a shiftlab module.  Every public function of a module and every
public method (plus the arithmetic operators) of its classes is wrapped in a
span named ``<module>.<qualname>``; a name another module imported with
``from .x import y`` is rebound there too.  Three hooks add counts computed
from argument and result shapes, not from timing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys

from tracer import TRACED, Tracer, calls, layer_self_time, outermost_time

LAYERS = ("cli", "reports", "rational", "nilpotent", "criteria", "operators", "dynamics", "grading", "linalg")
OPERATORS = frozenset(
    ("__matmul__", "__add__", "__sub__", "__mul__", "__neg__", "__pow__", "__truediv__",
     "__floordiv__", "__mod__", "__rsub__", "__rtruediv__", "__call__")
)
# About a million calls per density report; dynamics.density_points is
# computed from the arguments of u3_density instead.
SKIP = frozenset(("dynamics.NetSpec.cell_of",))
# About 33 000 calls per salas report: counted, without a span each.
COUNT_ONLY = frozenset(("operators.WeightSequence.log_abs",))


def _modules() -> dict:
    return {name: importlib.import_module(f"shiftlab.{name}") for name in LAYERS}


def _public_callables(module):
    """(qualname, owner, attr, function) for everything the layer exposes."""
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for name, member in vars(obj).items():
                if inspect.isfunction(member) and (not name.startswith("_") or name in OPERATORS):
                    yield f"{obj.__name__}.{name}", obj, name, member
        elif callable(obj) and getattr(obj, "__module__", None) == module.__name__ and not inspect.isclass(obj):
            yield attr, module, attr, obj


class _DrawCounter:
    """Passes ``uniform`` draws through to a generator and counts them."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0

    def uniform(self, low, high, size):
        self.drawn += size
        return self.rng.uniform(low, high, size)


def _hooks(tracer: Tracer, dynamics) -> dict:
    """Counter updates per span name, and adapters that change arguments."""
    counts = tracer.counts
    u3_signature = inspect.signature(dynamics.u3_density)

    def matmul(args, kwargs, result):
        a, b = args
        inner_cols = b.cols if hasattr(b, "cols") else 1
        counts["rational.matmul_mults"] += a.rows * a.cols * inner_cols
        entries = (x for row in result.data for x in row) if hasattr(result, "data") else result
        bits = max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in entries), default=0)
        counts["rational.max_bits"] = max(counts["rational.max_bits"], bits)

    def h_eval(args, kwargs, result):
        counts["operators.h_eval_points"] += len(result)

    def u3_density(args, kwargs, result):
        bound = u3_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        bound = bound.arguments
        scales = 1 if bound["scale_grid"] is None else len(bound["scale_grid"])
        counts["dynamics.density_points"] += bound["base_count"] * (bound["horizon"] + 1) * scales

    def sample_adapter(fn):
        @functools.wraps(fn)
        def sample(self, rng, count):
            drawn = _DrawCounter(rng)
            out = fn(self, drawn, count)
            counts["criteria.region_tested"] += drawn.drawn // 2  # re and im per point
            counts["criteria.region_kept"] += count
            return out

        return sample

    return {
        "after": {
            "rational.RationalMatrix.__matmul__": matmul,
            "operators.h_eval": h_eval,
            "dynamics.u3_density": u3_density,
        },
        "adapt": {"criteria.RegionPredicate.sample": sample_adapter},
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables; ``tracer.restore()`` undoes it."""
    mods = _modules()
    everywhere = [m for name, m in sys.modules.items() if name == "shiftlab" or name.startswith("shiftlab.")]
    hooks = _hooks(tracer, mods["dynamics"])
    for layer, module in mods.items():
        for qualname, owner, attr, fn in list(_public_callables(module)):
            name = f"{layer}.{qualname}"
            if name in SKIP:
                continue
            if name in COUNT_ONLY:
                stand_in = tracer.counter(name, fn)
            else:
                after = hooks["after"].get(name)
                inner = hooks["adapt"][name](fn) if name in hooks["adapt"] else fn
                stand_in = tracer.wrap(name, inner, after)
            if owner is module:
                # rebind the name in every module that imported it
                for other in everywhere:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            tracer.patch(other, key, stand_in)
            else:
                for key, value in list(vars(owner).items()):
                    if value is fn:  # aliases such as __rmul__ = __mul__
                        tracer.patch(owner, key, stand_in)


def leftover_stand_ins() -> list[str]:
    """Names still bound to a stand-in in any shiftlab module or class."""
    out = []
    for modname, module in list(sys.modules.items()):
        if not (modname == "shiftlab" or modname.startswith("shiftlab.")):
            continue
        for attr, obj in vars(module).items():
            if hasattr(obj, TRACED):
                out.append(f"{modname}.{attr}")
            if inspect.isclass(obj):
                out += [f"{modname}.{attr}.{k}" for k, v in vars(obj).items() if hasattr(v, TRACED)]
    return out


def _caches(module) -> list:
    return [obj for obj in vars(module).values() if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")]


def traced_pass(run):
    """Clear shiftlab's caches, install the tracer, call ``run(tracer)`` and
    always restore every original.  Returns (outcomes, tracer, cache counts)."""
    mods = _modules()
    for module in mods.values():
        for cache in _caches(module):
            cache.cache_clear()
    tracer = Tracer()
    try:
        install(tracer)
        outcomes = run(tracer)
    finally:
        tracer.restore()
    left = leftover_stand_ins()
    if left:
        raise RuntimeError(f"stand-ins left after the traced run: {left}")
    infos = [cache.cache_info() for cache in _caches(mods["nilpotent"])]
    counters = {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
    }
    return outcomes, tracer, counters


def _names(spans, prefix: str) -> set:
    return {span[0] for span in spans if span[0].startswith(prefix)}


def per_layer(tracer: Tracer, cache: dict, untraced, traced) -> dict:
    """name -> (value, unit, samples) for every per-layer metric."""
    spans = tracer.spans
    counts = tracer.counts
    own = layer_self_time(spans)
    n = len(traced)

    def t(*names):
        return outermost_time(spans, names), "s", n

    def c(value, unit="count"):
        return value, unit, n

    lookups = cache["hits"] + cache["misses"]
    tested = counts["criteria.region_tested"]
    return {
        "trace.overhead_s": (sum(o.seconds for o in traced) - sum(o.seconds for o in untraced), "s", n),
        "cli.build_parser_s": t("cli.build_parser"),
        "cli.command_s": t(*_names(spans, "cli.cmd_")),
        "reports.to_json_s": t("reports.ExperimentReport.to_json", "reports.canonical_json"),
        "reports.bytes_out": c(sum(o.nbytes for o in traced), "B"),
        "rational.self_s": (float(own["rational"]), "s", n),
        "rational.matmul_s": t("rational.RationalMatrix.__matmul__"),
        "rational.matmul_calls": c(calls(spans, ["rational.RationalMatrix.__matmul__"])),
        "rational.matmul_mults": c(counts["rational.matmul_mults"]),
        "rational.pow_s": t("rational.RationalMatrix.pow"),
        "rational.max_bits": c(counts["rational.max_bits"], "bits"),
        "rational.rref_s": t("rational.RationalMatrix.rref"),
        "rational.rref_calls": c(calls(spans, ["rational.RationalMatrix.rref"])),
        "rational.inv_s": t("rational.RationalMatrix.inv"),
        "rational.solve_s": t("rational.RationalMatrix.solve"),
        "rational.det_s": t("rational.RationalMatrix.det"),
        "rational.poly_s": t(*_names(spans, "rational.Poly."), *_names(spans, "rational.RationalFunction.")),
        "nilpotent.self_s": (float(own["nilpotent"]), "s", n),
        "nilpotent.exact_solve_s": t("nilpotent.jordan_solve_exact"),
        "nilpotent.det_mnk_s": t("nilpotent.det_mnk"),
        "nilpotent.float_solve_s": t(
            "nilpotent.jordan_solve", "nilpotent.tensor_approach",
            "nilpotent.unimodular_approach", "nilpotent.discrete_pair",
        ),
        "nilpotent.cache_hits": c(cache["hits"]),
        "nilpotent.cache_misses": c(cache["misses"]),
        "nilpotent.cache_hit_ratio": c(cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "criteria.self_s": (float(own["criteria"]), "s", n),
        "criteria.ebs_perturb_s": t("criteria.ebs_perturb"),
        "criteria.salas_s": t("criteria.salas_hypercyclic", "criteria.salas_supercyclic"),
        "criteria.region_s": t("criteria.gs_region_verdict"),
        "criteria.region_accept_ratio": c(counts["criteria.region_kept"] / tested if tested else 0.0, "ratio"),
        "criteria.symmetry_s": t("criteria.symmetry_obstruction", "criteria.b_symmetry_check"),
        "criteria.subspace_s": t(
            "criteria.ker_dagger", "criteria.lambda_t",
            "criteria.ebs_tuple_kernel", "criteria.unimodular_chain_spaces",
        ),
        "operators.self_s": (float(own["operators"]), "s", n),
        "operators.h_eval_s": t("operators.h_eval"),
        "operators.h_eval_points": c(counts["operators.h_eval_points"]),
        "operators.log_abs_calls": c(counts["operators.WeightSequence.log_abs"]),
        "operators.tensor_op_s": t("operators.tensor_op"),
        "operators.saan_generators_s": t("operators.saan_generators"),
        "dynamics.self_s": (float(own["dynamics"]), "s", n),
        "dynamics.u3_density_s": t("dynamics.u3_density"),
        "dynamics.density_points": c(counts["dynamics.density_points"]),
        "dynamics.mixing_window_s": t("dynamics.mixing_window"),
        "dynamics.volterra_dist_s": t("dynamics.volterra_dist"),
        "dynamics.group_law_s": t("dynamics.group_law_residual", "dynamics.exp_group"),
        "grading.self_s": (float(own["grading"]), "s", n),
        "grading.n0_bound_s": t("grading.n0_bound"),
        "linalg.self_s": (float(own["linalg"]), "s", n),
        # kernel_and_image is the layer's one SVD call site
        "linalg.svd_calls": c(calls(spans, ["linalg.kernel_and_image"])),
    }


def write_spans(tracer: Tracer, path, plan) -> None:
    """One line per span: name, start, end, parent index, report id, kind."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\treport\tkind\n")
        for name, start, end, parent, report in tracer.spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{report}\t{plan[report][0].name}\n")
