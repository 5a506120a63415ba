"""Seeded report sweeps: the argv lists the benchmark feeds to ``shiftlab.cli.main``.

A workload is a list of report kinds.  Each kind has a fixed parameter space
(every argv it can produce), a count per round and the exit code and verdict
every argv of the kind must give.  A run is a sequence of rounds.  Every round
holds the same kinds in the same counts: for each kind it draws ``count``
distinct argv from the space (with repeats only when the space is smaller)
with the workload seed and the round number, then shuffles the round.  The
counts fix the shape of a round (which kind holds the median and the 90th
percentile of report time); the seed only picks parameters of similar cost
and the order.

Because each space is finite and small, the oracle (``oracle.json``) records
the digest of every argv a workload can produce, so report bytes are checked
at every seed, not only at the default one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TMP = "<tmp>"  # stands for the run's temporary output directory in an argv
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Kind:
    name: str
    count: int  # reports of this kind per round
    space: tuple  # every argv (a tuple of str) this kind can produce
    verdict: object  # the verdict every argv gives, or argv -> verdict

    def expected(self, argv: tuple) -> tuple[int, str]:
        """Exit code and verdict; every kind here ends in an affirmative
        verdict, so the exit code is 0 (2 would mean a negative one)."""
        verdict = self.verdict(argv) if callable(self.verdict) else self.verdict
        return 0, verdict


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple

    def round(self, seed: int, index: int) -> list[tuple[Kind, tuple]]:
        """Round ``index`` of the run: (kind, argv) pairs, shuffled; equal
        seeds give equal rounds."""
        rng = random.Random(f"{self.name}/{seed}/{index}")
        out = []
        for kind in self.kinds:
            if kind.count <= len(kind.space):
                picks = rng.sample(kind.space, kind.count)
            else:
                picks = rng.choices(kind.space, k=kind.count)
            out.extend((kind, argv) for argv in picks)
        rng.shuffle(out)
        return out


def _space(*argvs) -> tuple:
    return tuple(tuple(a.split()) for a in argvs)


SEEDS = range(8)


def _perturb(dim: int) -> tuple:
    return _space(*(f"perturb --dim {dim} --trials 1 --seed {s}" for s in range(16)))


# Kinds are listed from the most to the least costly report.  The comments
# name the kind whose block of report times holds each percentile of a round
# (and so of any set of whole rounds); its neighbours differ in cost enough
# that the percentile does not slide into them.
EXACT_DENSE = Workload(
    "exact-dense",
    (
        Kind("saan-k3", 1, _space(*(f"saan-group --k 3 --seed {s}" for s in SEEDS)), "satisfied"),
        Kind("saan-k2", 1, _space(*(f"saan-group --k 2 --seed {s}" for s in SEEDS)), "satisfied"),
        # the 90th percentile sits inside this block
        Kind("perturb-14", 6, _perturb(14), "exact"),
        Kind("perturb-13", 1, _perturb(13), "exact"),
        Kind("perturb-12", 1, _perturb(12), "exact"),
        Kind("perturb-11", 1, _perturb(11), "exact"),
        Kind("perturb-10", 1, _perturb(10), "exact"),
        # the median sits inside this block
        Kind("goldens-nilpotent", 38, _space(f"emit-goldens --suite nilpotent --out-dir {TMP}"), "written"),
    ),
)

EXACT_SWEEP = Workload(
    "exact-sweep",
    (
        # the 90th percentile sits inside this block
        Kind(
            "grading-random",
            20,
            _space(*(f"grading --preset random --degree 2 --seed {s}" for s in range(32))),
            "verified",
        ),
        # the median sits inside this block; the exact inverses are cached
        # per (n, z) and shared by every jordan report of the run
        Kind("jordan-4", 46, _space(*(f"jordan --n-max 4 --pairs 1 --seed {s}" for s in range(64))), "satisfied"),
        Kind(
            "detan-8",
            6,
            _space("detan", "detan --max-n 7 --max-k 8", "detan --max-n 8 --max-k 7"),
            "recurrence = direct",
        ),
        Kind(
            "grading-presets",
            7,
            _space(
                *(f"grading --preset powers --degree {d}" for d in (1, 2, 3)),
                *(f"grading --preset split --degree {d}" for d in (1, 2, 3, 4)),
            ),
            "verified",
        ),
        Kind(
            "small",
            7,
            _space(
                *(f"detan --max-n {n} --max-k 4" for n in (3, 4, 5)),
                *(f"jordan --n-max 2 --pairs 1 --seed {s}" for s in range(16)),
            ),
            lambda argv: "recurrence = direct" if argv[0] == "detan" else "satisfied",
        ),
    ),
)

# what each built-in region maps to under each transform (exact, seed-free)
REGION_VERDICTS = {
    ("V", "shift1"): "outside-closed-disk",
    ("V", "exp"): "intersects-circle",
    ("U", "shift1"): "intersects-circle",
    ("U", "exp"): "inside-disk",
}


def _regions(builtin: str, transform: str) -> tuple:
    return _space(*(f"regions --builtin {builtin} --transform {transform} --seed {s}" for s in SEEDS))


def _region_verdict(argv: tuple) -> str:
    return REGION_VERDICTS[argv[2], argv[4]]


def _subspace_verdict(argv: tuple) -> str:
    which, op = argv[2], argv[4]
    nontrivial = (which, op) in {("kerdagger", "shift"), ("lambda", "unipotent")}
    return "nontrivial" if nontrivial else "trivial"


FLOAT_PROBES = Workload(
    "float-probes",
    (
        Kind("density", 1, _space(*(f"density --seed {s}" for s in SEEDS)), "dense-at-net"),
        Kind("volterra", 1, _space("volterra --ngrid 2048"), "satisfied"),
        Kind("salas-full", 1, _space("salas --full-traces"), "satisfied"),
        # the 90th percentile sits inside the block of the four regions-V
        Kind("regions-V-shift1", 2, _regions("V", "shift1"), _region_verdict),
        Kind("regions-V-exp", 2, _regions("V", "exp"), _region_verdict),
        Kind("regions-U-shift1", 1, _regions("U", "shift1"), _region_verdict),
        Kind("regions-U-exp", 1, _regions("U", "exp"), _region_verdict),
        Kind(
            "salas",
            2,
            _space(
                "salas",
                "salas --weights genshi-sc --variant supercyclic",
                "salas --c 3 --m0 2",
                "salas --weights genshi-sc --variant supercyclic --c 3",
            ),
            "satisfied",
        ),
        Kind("symmetry", 2, _space(*(f"symmetry --seed {s}" for s in SEEDS)), "holds"),
        Kind("mixing", 5, _space(*(f"mixing --seed {s}" for s in range(16))), "mixing-window-found"),
        # the median sits in the upper part of the block of these four kinds
        # of similar cost, several times cheaper than mixing
        Kind(
            "tensor",
            9,
            _space(*(f"tensor --dims {d} --mode {m}" for d in ("1,1", "2,1", "2,2") for m in ("diag", "bounded"))),
            "satisfied",
        ),
        Kind("kerim", 9, _space(*(f"kerim --n {n} --z {z}" for n in (1, 2, 3) for z in ("1", "1j", "-1"))), "satisfied"),
        Kind("symmetry-pairing", 4, _space(*(f"symmetry --mode pairing --n {n}" for n in (4, 5, 6, 7))), "b-symmetric"),
        Kind(
            "subspaces",
            10,
            _space(
                *(
                    f"subspaces --which {w} --op {o} --n {n}"
                    for w in ("kerdagger", "lambda")
                    for o in ("shift", "unipotent")
                    for n in (2, 3)
                ),
                *(f"subspaces --which lambda --op diag --seed {s}" for s in SEEDS),
            ),
            _subspace_verdict,
        ),
    ),
)

WORKLOADS = {w.name: w for w in (EXACT_DENSE, EXACT_SWEEP, FLOAT_PROBES)}
