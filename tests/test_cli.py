"""End-to-end runner tests: exit codes, schema, golden stability."""

import argparse
import contextlib
import hashlib
import io
import json
import itertools
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import operators as op
from shiftlab.cli import (
    NEGATIVE_VERDICTS,
    TENSOR_MODES,
    WEIGHT_FAMILIES,
    _all_commute,
    _maps_to,
    _positive_ints,
    build_parser,
    emit_goldens,
    main,
)
from shiftlab.rational import RationalMatrix
from shiftlab.reports import SCHEMA_VERSION, ExperimentReport, trace_csv


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def reject_constant(name):
    """json.loads hook: NaN and Infinity are not JSON (RFC 8259)."""
    raise ValueError(f"non-JSON constant {name}")


def load_report(out):
    report = json.loads(out)
    assert report["schema_version"] == SCHEMA_VERSION
    return report


class TestExitCodes:
    def test_detan_affirmative(self, capsys):
        code, out = run_cli(["detan", "--max-n", "4", "--max-k", "4"], capsys)
        assert code == 0
        assert load_report(out)["verdict"] == "recurrence = direct"

    def test_salas_satisfied(self, capsys):
        code, out = run_cli(
            ["salas", "--weights", "genshi-hc", "--c", "2", "--m0", "3", "--n-max", "4096"],
            capsys,
        )
        assert code == 0
        assert load_report(out)["verdict"] == "satisfied"

    def test_salas_violated_exits_two(self, capsys):
        code, out = run_cli(
            ["salas", "--weights", "const", "--value", "1.0", "--n-max", "1024"], capsys
        )
        assert code == 2
        assert load_report(out)["verdict"] == "violated-at-horizon"

    def test_unknown_weight_family_is_input_error(self, capsys):
        code, _ = run_cli(["salas", "--weights", "nonsense"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "argv", ["salas --weights genshi-hc --c 0 --n-max 16", "symmetry --weights genshi-hc --c 0"]
    )
    def test_genshi_hc_zero_c_is_input_error(self, argv, capsys):
        # the left tail of genshi-hc is 1/c
        code = main(shlex.split(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_genshi_sc_zero_c_is_a_verdict(self, capsys):
        code, out = run_cli(["salas", "--weights", "genshi-sc", "--c", "0", "--n-max", "16"], capsys)
        assert code == 2
        assert load_report(out)["verdict"] == "violated-at-horizon"

    @pytest.mark.parametrize("z", ["nan", "nanj", "2", "infj"])
    def test_kerim_non_unimodular_z_is_input_error(self, z, capsys):
        code = main(["kerim", "--z", z])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            "jordan --n-max 0",
            "detan --max-n 0",
            "symmetry --N -1",
            "density --horizon -5",
            "salas --c nan",
            "kerim --k-max-exp 1",
            "kerim --k-max-exp 1024",
            "kerim --z abc",
            "tensor --steps ''",
            "density --box nan",
            "jordan --seed -1",
            "perturb --s 1/0",
            "perturb --dim 1",
            "perturb --dim 9",
            "salas --tol 0",
            "density --threshold -1",
            "density --threshold 0",
            "density --threshold 1.5",
            "volterra --ngrid 256 --n-max 4 --f-file {zeros}",
            "volterra --ngrid 256 --n-max 4 --f-file {tiny}",
            "volterra --ngrid 256 --q 0.01",
        ],
    )
    def test_bad_input_is_rejected(self, argv, tmp_path, capsys):
        """Empty sweeps, non-finite numbers, malformed values and a grid
        function of zero norm end in an input error, not a verdict or a
        traceback."""
        files = {
            "zeros": [0.0] * 257,
            # f * f underflows to 0 on the grid
            "tiny": [1e-200] * 128 + [0.0] * 129,
        }
        for name, values in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps({"values": values}))
        code = main(shlex.split(argv.format(**{name: tmp_path / f"{name}.json" for name in files})))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: argument" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        # 2 * box overflows; at seeds 81, 13 and 30 a Gaussian base drawn at
        # scale box / 2 does (at 81, |z| = 4.26 > 2 max_float / box)
        [
            ("density --box 1e308", "2 * box leaves the float range"),
            ("density --family identity --box 8.98e307 --seed 81", "a base vector leaves the float range"),
            ("density --box 8.98e307 --seed 13", "a base vector leaves the float range"),
            ("density --box 8.98e307 --seed 30", "a base vector leaves the float range"),
        ],
    )
    def test_density_box_past_the_float_range_is_rejected(self, argv, message, capsys):
        """An input error, not an ``inconclusive`` verdict from inf arithmetic."""
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_kerim_k_max_exp_takes_the_last_float_power(self):
        # 2^1023 is the largest power of two a float holds
        assert build_parser().parse_args(["kerim", "--k-max-exp", "1023"]).k_max_exp == 1023

    def test_regions_witness(self, capsys):
        code, out = run_cli(
            ["regions", "--builtin", "U", "--transform", "shift1", "--samples", "10000"],
            capsys,
        )
        assert code == 0
        report = load_report(out)
        assert report["verdict"] == "intersects-circle"
        assert report["data"]["witnesses"] == [[-0.2, 0.6]]

    def test_regions_inside_disk(self, capsys):
        code, out = run_cli(
            ["regions", "--builtin", "U", "--transform", "exp", "--samples", "10000"],
            capsys,
        )
        assert code == 0
        assert load_report(out)["verdict"] == "inside-disk"

    def test_symmetry_weights_mode(self, capsys):
        code, out = run_cli(
            ["symmetry", "--mode", "weights", "--p", "1+t", "--trials", "10", "--N", "20"],
            capsys,
        )
        assert code == 0
        assert load_report(out)["verdict"] == "holds"

    def test_symmetry_overflowing_orbit_is_indeterminate(self, capsys):
        # |w_n| = 1e10 drives the orbit norms past the float range within
        # the horizon: no residual is measured there, so no "holds"; numpy's
        # overflow warnings would be errors under this suite's filter
        code, out = run_cli(["symmetry", "--weights", "const", "--value", "1e10"], capsys)
        assert code == 2
        data = load_report(out)["data"]
        assert data["verdict"] == "indeterminate"
        assert sorted(data) == [
            "first_violation", "horizon", "max_residual", "similarity_exact", "trials", "verdict",
        ]

    @pytest.mark.parametrize("argv, verdict", [
        ("symmetry --weights const --value 1e10", "indeterminate"),
        ("symmetry --weights genshi-hc", "inapplicable"),
    ])
    def test_symmetry_without_a_residual_writes_strict_json(self, argv, verdict, capsys):
        code, out = run_cli(shlex.split(argv), capsys)
        assert code == 2
        data = json.loads(out, parse_constant=reject_constant)["data"]
        assert data["verdict"] == verdict
        assert data["max_residual"] is None

    @pytest.mark.parametrize("argv", [
        # (I + A)^k overflows: numpy's NaN residuals used to read "satisfied"
        "kerim --n 4 --z (0.6+0.8j) --k-max-exp 200",
        # the head cross terms' complex power raised OverflowError
        "kerim --n 8 --z (0.6+0.8j) --k-max-exp 200",
        # (-1) ** (-2^1023) raised ZeroDivisionError in Python's complex power
        "kerim --n 1 --z -1 --k-max-exp 1023",
    ])
    def test_kerim_past_the_float_range_is_indeterminate(self, argv, capsys):
        code, out = run_cli(shlex.split(argv), capsys)
        assert code == 2
        report = json.loads(out, parse_constant=reject_constant)
        assert report["verdict"] == "indeterminate"
        rows = report["data"]["rows"]
        # the sweep ends before its first non-finite step
        assert 0 < len(rows) < report["params"]["k_max_exp"] - 1
        assert all(math.isfinite(r) for row in rows for r in row["residuals"])

    def test_perturb_exact(self, capsys):
        code, out = run_cli(["perturb", "--dim", "10", "--trials", "3"], capsys)
        assert code == 0
        assert load_report(out)["verdict"] == "exact"

    def test_grading_powers(self, capsys):
        code, out = run_cli(["grading", "--preset", "powers", "--degree", "2"], capsys)
        assert code == 0
        report = load_report(out)
        assert report["data"]["n0"] == 3
        assert report["data"]["counterexample_degree"] == 2

    def test_mixing(self, capsys):
        code, out = run_cli(["mixing", "--n", "2", "--horizon", "30"], capsys)
        assert code == 0
        assert load_report(out)["verdict"] == "mixing-window-found"

    def test_density_genshi(self, capsys):
        code, out = run_cli(["density", "--family", "genshi-sc", "--horizon", "300"], capsys)
        assert code == 0
        assert load_report(out)["data"]["fraction"] >= 0.9

    def test_density_identity_inconclusive(self, capsys):
        code, out = run_cli(
            ["density", "--family", "identity", "--horizon", "10", "--cells", "4"], capsys
        )
        assert code == 2
        assert load_report(out)["verdict"] == "inconclusive"

    def test_kerim_and_tensor(self, capsys):
        code, out = run_cli(["kerim", "--n", "1", "--k-max-exp", "8"], capsys)
        assert code == 0
        code, out = run_cli(["tensor", "--dims", "1,1", "--steps", "4,16,64"], capsys)
        assert code == 0

    @pytest.mark.parametrize("mode", sorted(TENSOR_MODES))
    def test_tensor_mode_declares_the_growing_coordinates(self, mode):
        # the declared escaping coordinates are those that grow with the step
        (z4, escaping), (z8, _) = (TENSOR_MODES[mode]((1, 2, 1), m) for m in (4, 8))
        assert escaping == {j for j in range(3) if abs(z8[j]) > abs(z4[j])}

    def test_saan_group(self, capsys):
        code, out = run_cli(["saan-group", "--k", "2", "--degree", "6"], capsys)
        assert code == 0
        report = load_report(out)
        assert report["data"]["group_law_residual"] <= 1e-10
        assert report["data"]["commutators_exact_zero"] is True

    def test_jordan_small(self, capsys):
        code, out = run_cli(
            ["jordan", "--n-max", "2", "--pairs", "3", "--z-max-exp", "6"], capsys
        )
        assert code == 0
        assert load_report(out)["verdict"] == "satisfied"

    def test_jordan_inexact_solve_is_violated(self, capsys, monkeypatch):
        # a solve off by 1e-9 in one tail entry leaves squared residuals far
        # below 1e-10; only exact zero residuals make the verdict
        _move_last_entry_of_the_exact_solve(monkeypatch, Fraction(1, 10**9))
        code, out = run_cli(["jordan", "--n-max", "2", "--pairs", "1", "--z-max-exp", "3"], capsys)
        report = load_report(out)
        assert code == 2 and report["verdict"] == "violated-at-horizon"
        assert 0 < max(row["worst_residual"] for row in report["data"]["rows"]) <= 1e-10
        assert all(row["decay_bound_ok"] for row in report["data"]["rows"])

    def test_jordan_decay_check_survives_float_underflow(self, capsys):
        # at z = 2^269 the bound c z^-j underflows to 0.0 in floats while the
        # exact |x| z^j is about 500 against 16 c of about 1.6e5
        code, out = run_cli(["jordan", "--n-max", "4", "--pairs", "1", "--z-max-exp", "280"], capsys)
        assert code == 0
        assert load_report(out)["verdict"] == "satisfied"

    def test_jordan_beyond_the_float_range_of_z(self):
        # z = 2^1024 and beyond has no float; only the fit at z = 2 uses one
        argv = shlex.split("jordan --n-max 1 --pairs 1 --z-max-exp 1100")
        proc = subprocess.run(
            [sys.executable, "-m", "shiftlab.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "satisfied"

    def test_subspaces_shift(self, capsys):
        code, out = run_cli(["subspaces", "--which", "kerdagger", "--op", "shift", "--n", "3"], capsys)
        assert code == 0
        assert load_report(out)["data"]["dim"] == 3

    @pytest.mark.parametrize("n", range(1, 17))
    def test_subspaces_dims_have_their_closed_form(self, n, capsys):
        # S is the backward shift on K^(2n): ker-dagger of S and Lambda of
        # I + S are span{e_0..e_(n-1)}; I + S is invertible, S has no
        # unimodular eigenvalue and the unitary diagonal on K^n no Jordan
        # chain, so their spans are {0}
        for which, op_name, dim in (
            ("kerdagger", "shift", n),
            ("kerdagger", "unipotent", 0),
            ("kerdagger", "diag", 0),
            ("lambda", "unipotent", n),
            ("lambda", "shift", 0),
            ("lambda", "diag", 0),
        ):
            code, out = run_cli(["subspaces", "--which", which, "--op", op_name, "--n", str(n)], capsys)
            assert (code, load_report(out)["data"]["dim"]) == (0, dim), (which, op_name)

    @pytest.mark.parametrize("dims", [(d,) for d in range(1, 5)] + list(itertools.product(range(1, 5), repeat=2)))
    def test_subspaces_ebsk_dim_is_the_number_of_heads(self, dims, capsys):
        # the EBS span of the tensor shifts is spanned by the head coordinates
        # (q_1, .., q_k) with q_j < d_j
        argv = ["subspaces", "--which", "ebsk", "--dims", ",".join(map(str, dims))]
        code, out = run_cli(argv, capsys)
        assert (code, load_report(out)["data"]["dim"]) == (0, math.prod(dims))


class TestParserReuse:
    """main builds its parser once per process; one report's flags must not
    leak into the next, least of all the --weights flag salas and symmetry
    share with different defaults."""

    ARGV = {
        "salas": "salas --weights const --value 2 --n-max 256",
        "symmetry": "symmetry --trials 5",
    }

    @pytest.fixture(scope="class")
    def fresh(self):
        return {
            name: subprocess.run(
                [sys.executable, "-m", "shiftlab.cli", *shlex.split(argv)],
                capture_output=True,
                text=True,
            ).stdout
            for name, argv in self.ARGV.items()
        }

    @pytest.mark.parametrize("order", [("salas", "symmetry"), ("symmetry", "salas")])
    def test_reports_match_fresh_processes(self, order, fresh, capsys):
        for name in order:
            code, out = run_cli(shlex.split(self.ARGV[name]), capsys)
            assert code in (0, 2)
            assert out == fresh[name]


class TestJordanCacheReuse:
    """The approach maps and the e^{zS} matrices are cached per (n, z); a
    second jordan report, and the discrete pair at the same z, reuse them."""

    def test_a_second_report_adds_no_cache_misses(self, capsys):
        from shiftlab import nilpotent

        def misses():
            return (
                nilpotent._approach_map.cache_info().misses,
                nilpotent.exp_shift_exact.cache_info().misses,
            )

        argv = "jordan --n-max 4 --pairs 1 --seed {}"
        assert run_cli(shlex.split(argv.format(0)), capsys)[0] == 0
        before = misses()
        assert run_cli(shlex.split(argv.format(1)), capsys)[0] == 0
        assert misses() == before
        nilpotent.discrete_pair_errors_exact(2, 8, [1, 0], [0, 1])
        assert nilpotent._approach_map.cache_info().misses == before[0]

    def test_int_and_fraction_z_share_one_entry(self):
        from shiftlab import nilpotent

        for n in range(1, 5):
            for e in range(1, 11):
                a = nilpotent._approach_map(n, 1 << e)
                assert nilpotent._approach_map(n, Fraction(2) ** e) is a


class TestVolterraReuse:
    """Volterra reports in one process, with grids and supports that come
    back, each give the bytes of a fresh process."""

    ARGV = [
        "volterra --ngrid 256 --q 0.5",
        "volterra --ngrid 256 --q 0.3",
        "volterra --ngrid 256 --f-file {}",
        "volterra --ngrid 512",
        "volterra --ngrid 256 --q 0.5",
    ]

    @pytest.fixture(scope="class")
    def f_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("volterra") / "f.json"
        values = [i * (128 - i) / 4096.0 if i < 128 else 0.0 for i in range(257)]
        path.write_text(json.dumps({"values": values}))
        return str(path)

    def test_reports_match_fresh_processes(self, f_file, capsys):
        argvs = [[part.format(f_file) for part in argv.split()] for argv in self.ARGV]
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "shiftlab.cli", *argv], capture_output=True, text=True
            ).stdout
            for argv in argvs
        ]
        for argv, want in zip(argvs, fresh):
            code, out = run_cli(argv, capsys)
            assert code in (0, 2)
            assert out == want


class TestOutputs:
    def test_report_written_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _ = run_cli(
            ["--out", str(out_file), "detan", "--max-n", "3", "--max-k", "3"], capsys
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["command"] == "detan"

    def test_csv_trace(self, capsys):
        code, out = run_cli(
            ["--format", "csv", "volterra", "--ngrid", "256", "--n-max", "5"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,d_n"
        assert len(lines) == 7

    def test_csv_null_rows_are_empty_cells(self, capsys):
        # rows 54..60 have no float distance: JSON null, an empty CSV cell
        code, out = run_cli(["--format", "csv", "volterra", "--n-max", "60"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,d_n" and len(lines) == 62
        assert lines[55:] == [f"{n}," for n in range(54, 61)]
        assert all(float(line.split(",")[1]) > 0 for line in lines[1:55])

    def test_csv_unsupported_subcommand(self, capsys):
        code, _ = run_cli(["--format", "csv", "detan", "--max-n", "2", "--max-k", "2"], capsys)
        assert code == 1

    def test_outdir_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SHIFTLAB_OUTDIR", str(tmp_path))
        code, _ = run_cli(["detan", "--max-n", "2", "--max-k", "2"], capsys)
        assert code == 0
        assert (tmp_path / "detan.json").exists()

    def test_config_file_mirrors_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "salas",
                    "format": "json",
                    "args": {"weights": "genshi-hc", "n-max": 2048, "full-traces": False},
                }
            )
        )
        code, out = run_cli(["--config", str(cfg)], capsys)
        assert code == 0
        assert load_report(out)["verdict"] == "satisfied"

    def test_config_file_missing_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"args": {}}))
        code, _ = run_cli(["--config", str(cfg)], capsys)
        assert code == 1

    def test_jsonl_trace(self, capsys):
        code, out = run_cli(
            ["--format", "jsonl", "kerim", "--n", "1", "--k-max-exp", "5"], capsys
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0]["k"] == 4 and "residual_0" in rows[0]

    def test_symmetry_pairing_mode(self, capsys):
        code, out = run_cli(["symmetry", "--mode", "pairing", "--n", "5", "--N", "30"], capsys)
        assert code == 0
        assert load_report(out)["verdict"] == "b-symmetric"

    def test_volterra_json_verdict(self, capsys):
        code, out = run_cli(["volterra", "--ngrid", "512", "--n-max", "12"], capsys)
        assert code == 0
        assert load_report(out)["verdict"] == "satisfied"

    @pytest.mark.parametrize("n_max", [60, 120])
    def test_volterra_overflowed_rows_are_null(self, n_max, capsys):
        # rows 54.. have no float distance: null, left out of the minimum,
        # and never 0.0, which would claim f is orthogonal to h^(n)
        code, out = run_cli(["volterra", "--n-max", str(n_max)], capsys)
        report = json.loads(out, parse_constant=reject_constant)
        distances = report["data"]["distances"]
        assert code == 0 and report["verdict"] == "satisfied"
        assert distances[54:] == [None] * (n_max - 53)
        assert all(d > 0 for d in distances[:54])

    def test_same_config_same_bytes(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            code, _ = run_cli(
                ["--out", str(f), "density", "--family", "genshi-sc", "--horizon", "100", "--seed", "5"],
                capsys,
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestFileInterfaces:
    def test_weights_from_json_file(self, tmp_path, capsys):
        from shiftlab.operators import genshi_hypercyclic_weights

        path = tmp_path / "weights.json"
        path.write_text(json.dumps(genshi_hypercyclic_weights().to_dict()))
        code, out = run_cli(
            ["salas", "--weights", f"file:{path}", "--n-max", "2048"], capsys
        )
        assert code == 0
        assert load_report(out)["verdict"] == "satisfied"

    def test_full_traces_flag(self, capsys):
        code, out = run_cli(
            ["salas", "--weights", "const", "--value", "2.0", "--n-max", "256",
             "--m-max", "1", "--full-traces"],
            capsys,
        )
        assert code == 2
        report = load_report(out)
        assert len(report["data"]["log_traces"]) == 2
        assert len(report["data"]["log_traces"][0]) == 256

    def test_volterra_grid_function_file(self, tmp_path, capsys):
        from shiftlab.dynamics import bump_function

        path = tmp_path / "f.json"
        path.write_text(json.dumps({"values": list(bump_function(256, 0.5))}))
        code, out = run_cli(
            ["volterra", "--ngrid", "256", "--q", "0.5", "--n-max", "4",
             "--f-file", str(path)],
            capsys,
        )
        assert code == 0

    def test_volterra_grid_function_wrong_length(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"values": [0.0] * 10}))
        code, _ = run_cli(
            ["volterra", "--ngrid", "256", "--f-file", str(path)], capsys
        )
        assert code == 1


class TestMalformedInput:
    """A malformed config or input file is an input error (exit 1, one
    ``error:`` line), never a traceback, also when main is called in process."""

    @pytest.mark.parametrize(
        "text", ["5", '["command"]', '{"command": "salas", "args": [1, 2]}']
    )
    def test_config_that_is_not_an_object(self, text, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = main(["--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: bad config: ")

    @pytest.mark.parametrize(
        "command, text",
        [
            ("salas --weights file:{}", "{not json"),
            ("salas --weights file:{}", '{"tail": "constant"}'),
            ("volterra --ngrid 16 --f-file {}", '{"window": [1, 1, 1]}'),
            ("volterra --ngrid 16 --f-file {}", '{"values": "abc"}'),
            ("volterra --ngrid 16 --f-file {}", json.dumps({"values": [float("nan")] * 17})),
        ],
    )
    def test_malformed_input_file(self, command, text, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(text)
        code = main([part.format(path) for part in command.split()])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestNonFiniteWeights:
    """A NaN or an infinity in a weight file is an input error, not a verdict."""

    @staticmethod
    def _run(command, weights, tmp_path, capsys):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(weights))
        code = main([part.format(path) for part in command.split()])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    _NAN_WINDOW = {"window": [1, float("nan"), 1], "tail": "constant", "c_plus": 2, "c_minus": 0.5}

    def test_salas_rejects_nan_window(self, tmp_path, capsys):
        self._run("salas --weights file:{} --n-max 64", self._NAN_WINDOW, tmp_path, capsys)

    def test_symmetry_rejects_nan_window(self, tmp_path, capsys):
        self._run("symmetry --weights file:{}", self._NAN_WINDOW, tmp_path, capsys)

    @pytest.mark.parametrize("inf", [float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "weights",
        [
            {"window": [1, "INF", 1], "tail": "zero"},
            {"window": [1, 1, 1], "tail": "constant", "c_plus": "INF", "c_minus": 0.5},
            {"window": [1, 1, 1], "tail": "constant", "c_plus": 2, "c_minus": "INF"},
            {"window": [1, 1, 1], "tail": "geometric", "ratio": [0.5, "INF"]},
        ],
    )
    def test_infinite_weights_rejected(self, inf, weights, tmp_path, capsys):
        text = json.dumps(weights).replace('"INF"', json.dumps(inf))
        for command in ("salas --weights file:{} --n-max 64", "symmetry --weights file:{}"):
            self._run(command, json.loads(text), tmp_path, capsys)

def _reference_jordan_tail(n, z, u, v):
    """The tail of the approach pair, A_{n,z} t = R v - H u, solved by a
    plain Gauss-Jordan on Fractions."""
    m = [
        [z ** (j + k - 1) / math.factorial(j + k - 1) for k in range(1, n + 1)]
        + [
            v[n - j]
            - sum(
                z ** (k + j - n - 1) * u[k - 1] / math.factorial(k + j - n - 1)
                for k in range(n - j + 1, n + 1)
            )
        ]
        for j in range(1, n + 1)
    ]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        m[c] = [a / m[c][c] for a in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[-1] for row in m]


def _reference_jordan(args, offset=Fraction(0)):
    """The jordan report computed on Fractions step by step: the exact pair
    x at z = 2^e (its last entry moved by ``offset``), both squared head
    residuals as Fractions, the decay fit and checks on Fraction entries."""
    rng = np.random.default_rng(args.seed)
    rows = []
    worst_exact = 0.0
    exact_zero = True
    bound_ok = True
    for n in range(1, args.n_max + 1):
        for _ in range(args.pairs):
            u = [Fraction(x).limit_denominator(2**20) for x in rng.uniform(0, 1, n)]
            v = [Fraction(x).limit_denominator(2**20) for x in rng.uniform(0, 1, n)]
            for e in range(1, args.z_max_exp + 1):
                z = Fraction(2) ** e
                x = u + _reference_jordan_tail(n, z, u, v)
                x[-1] += offset
                ex = [
                    sum(z ** (k - i) / math.factorial(k - i) * x[k] for k in range(i, 2 * n))
                    for i in range(n)
                ]
                r1 = sum((a - b) ** 2 for a, b in zip(x, u))
                r2 = sum((a - b) ** 2 for a, b in zip(ex, v))
                exact_zero = exact_zero and r1 == 0 and r2 == 0
                worst_exact = max(worst_exact, float(r1), float(r2))
                tail = x[n:]
                if e == 1:
                    c_fit = max(abs(complex(t)) * float(z) ** j for j, t in enumerate(tail, 1))
                    bound = 16.0 * (c_fit + 1e-12)
                else:
                    for j, t in enumerate(tail, 1):
                        if abs(t.numerator << (e * j)) / t.denominator > bound:
                            bound_ok = False
        rows.append({"n": n, "worst_residual": worst_exact, "decay_bound_ok": bound_ok})
    verdict = "satisfied" if exact_zero and bound_ok else "violated-at-horizon"
    return ExperimentReport(
        "jordan",
        {"n_max": args.n_max, "pairs": args.pairs, "z_max_exp": args.z_max_exp},
        seed=args.seed,
        verdict=verdict,
        data={"rows": rows},
        trace=rows,
    )


def _reference_jordan_output(argv, offset=Fraction(0)):
    """(exit code, stdout) of the reference report for a json or csv argv."""
    args = build_parser().parse_args(argv)
    report = _reference_jordan(args, offset)
    text = report.to_json() if args.format == "json" else trace_csv(report.trace)
    return (2 if report.verdict in NEGATIVE_VERDICTS else 0), text


def _move_last_entry_of_the_exact_solve(monkeypatch, offset):
    """Move the last entry of every exact approach pair the jordan report
    solves by ``offset`` = p/q, exactly on the integer kernel's output:
    x = ints / d becomes (ints q, with p d added to the last) / (d q)."""
    from shiftlab import nilpotent

    solve = nilpotent._jordan_ints
    p, q = offset.numerator, offset.denominator

    def moved(n, z, heads, dh):
        ints, d = solve(n, z, heads, dh)
        ints = [a * q for a in ints]
        ints[-1] += p * d
        return ints, d * q

    monkeypatch.setattr(nilpotent, "_jordan_ints", moved)


_JORDAN_ARGVS = [
    *(
        f"jordan --n-max {n} --pairs {p} --z-max-exp 6 --seed {7 * n + p}"
        for n in range(1, 7)
        for p in (1, 2, 3)
    ),
    *(f"jordan --n-max 4 --pairs 1 --seed {s}" for s in range(64)),
    *(f"jordan --n-max 2 --pairs 2 --z-max-exp {e}" for e in (1, 6, 40, 280, 1100)),
    "jordan --n-max 4 --pairs 1 --z-max-exp 280",
    "jordan --n-max 6 --pairs 1 --z-max-exp 40 --seed 5",
    "jordan",
    "--format csv jordan --n-max 2 --pairs 1",
    "--format csv jordan --n-max 5 --pairs 3 --z-max-exp 40 --seed 9",
]

# (argv, offset of the last entry): at small z an offset makes only the
# residuals nonzero; as z = 2^e grows, |offset| z^j outgrows the fitted
# bound, so the later rows' decay checks turn false too
_MOVED_JORDAN_CASES = [
    ("jordan --n-max 2 --pairs 1 --z-max-exp 3", Fraction(1, 10**9)),
    ("jordan --n-max 3 --pairs 2 --z-max-exp 40", Fraction(1, 10**9)),
    ("jordan --n-max 4 --pairs 1 --z-max-exp 12 --seed 3", Fraction(-3, 7 * 10**5)),
    ("--format csv jordan --n-max 3 --pairs 1 --z-max-exp 40", Fraction(-1, 2**70)),
]


class TestJordanMatchesFractionReference:
    """The jordan report's bytes and exit code against a Fraction evaluation
    of the same loop.  Unmoved, every residual is 0.0 and every decay check
    true; the moved cases make both columns carry information."""

    @pytest.mark.parametrize("argv", _JORDAN_ARGVS)
    def test_report_bytes_and_exit_code(self, argv, capsys):
        argv = shlex.split(argv)
        assert run_cli(argv, capsys) == _reference_jordan_output(argv)

    @pytest.mark.parametrize("argv, offset", _MOVED_JORDAN_CASES)
    def test_moved_solution(self, argv, offset, capsys, monkeypatch):
        argv = shlex.split(argv)
        want = _reference_jordan_output(argv, offset)
        _move_last_entry_of_the_exact_solve(monkeypatch, offset)
        assert run_cli(argv, capsys) == want
        assert want[0] == 2


# sha256 of stdout for the detan argvs of the exact-sweep benchmark, and a
# larger sweep
_DETAN_DIGESTS = {
    "detan": "71d11cbb317ea34a4fc3ea720ef163b7a2a2e42a20e24b63d770c5156865abeb",
    "detan --max-n 7 --max-k 8": "743bc08b482d11b6485bb818a41c810a67077572ceb632a87867729b28b78f7a",
    "detan --max-n 8 --max-k 7": "0c233fee9a707d91db5dd4621078c2f8eb619001fad35755105617859c57fa55",
    "detan --max-n 12 --max-k 12": "78b2450732b7b0964117154fc045d637e198880f5622e4478949150c78d602c5",
}


@pytest.mark.parametrize("argv", sorted(_DETAN_DIGESTS))
def test_detan_report_digest(argv, capsys):
    code, out = run_cli(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DETAN_DIGESTS[argv]


# sha256 of stdout for the perturb argvs of the exact-dense benchmark,
# ``perturb --dim D --trials 1 --seed S``, keyed "D-S"
_PERTURB_DIGESTS = {
    "10-0": "d2b2a032cbe7997db6c7779c755cad3e6eed3651a50f2d75acb4100a3774a3ef",
    "10-1": "ec028d60498f4ae790beedddfb8b4b4f943b6404df6489df2275443edc4a9f53",
    "10-2": "fe3282bf48f943e03ac3ee6561a18dad6998a2f0fee06258d9e905f83628a04b",
    "10-3": "1b07c9c7b833773109851774b4232d7ae7adeb814a188d7f6ae0a316ce1045a3",
    "10-4": "9c314b950931d9599d71f172940f050aa88f18aefe48f8d29d0716c0929bf626",
    "10-5": "1e1e03e72552a76a3ecfda059f5714b76388fcf3f32b002803d01fe6ded241db",
    "10-6": "715a211660ee08bc2175dda7aed45d33e87feb395d53ecbe6d75d7377449efc3",
    "10-7": "a4b9d11b1f84d781299a9943c9fc648bd73f16c82927894a44ec4645c3d9cba7",
    "10-8": "5df69ece8667d0845dbde1c2fe176972f30fafe54db8942c56f957c6c31d3149",
    "10-9": "634f490f86879e8bba96a6bd62a0c747e1694a0e3e030dec2e6c38e2dc6a52bc",
    "10-10": "3085ededa84254529f7f36f94956ffc9ae28c86a4b78b2342d27356ea878a9cf",
    "10-11": "eb8e6a6df7978bfcc5aa16044cc8ae58181c56108785be1672d18243b81a30ba",
    "10-12": "e6ceb203e5e04664860d5f4efda5c08ec764fa0135fef2834eaab4ce663fd386",
    "10-13": "cf0cdcb5742521e103e873d56551d5cf060ec3ec52509b221eb8fd4d9dc2a099",
    "10-14": "905fdd2691366a81f5c87990be13af6bacec862758973ed26e61b0547ede963a",
    "10-15": "eb32eeabd2cd4561530e82ab452bbd34c9280e3848746702f8fdf1defa0c8c05",
    "11-0": "fb9134bd1d3d6deb38a907189156c7df3d0dd45e241f2a2d7a3517f8a3baa304",
    "11-1": "6d7ba1030604abd3446dfad30cab9883f853790d522a7ceda2e1deca11c018b1",
    "11-2": "a767f9a2cdf30b32290838e899c46cebebc37f4462a87d2f531640a40c0b7d44",
    "11-3": "532a6f97bff419d449f0f7ca4f6a049c2ef89fb930f91d8460c48a0eab81e700",
    "11-4": "34392d884d5a5cf528e39fdb0f77934e9c2b9409b5e659e62ad740509cf458ab",
    "11-5": "7fe5966efd247a7fde40cf1da5e68c2b4607fdc25a77593156304942d5257362",
    "11-6": "b06550ab605eb7e19ec0d1a8ca5e05e537c02cfa6495a28ff62234a36b2ec160",
    "11-7": "1c2b18958d6a3520334c83bc41dea7554f3459f3612ed68c797c427ed68e9506",
    "11-8": "f9b10b5cf802e63583276baf26fdfd5b7e160411d4a6d71b3edc5bf88cfa3c05",
    "11-9": "82c55bb0ea45dd17cdee7ab724ca5938d50ca30853736a7a74a1e3fc1e431658",
    "11-10": "3eeb7605ecc53416a027ac22f488312771781d4a0688a314f5f37b283fac9b05",
    "11-11": "76b0488c1fe78160aad0285d57db8654cde0b43b0545e857b6901f25ab746dbe",
    "11-12": "1d1c544521cab2e58319c4fbb8fca33d8ea2c5fd9f2dfc16256ffb945cecf4b9",
    "11-13": "526dd6fbe52cfcd7c2f2f76bdde2ee703e1188e7a415a85769414f5b4110f723",
    "11-14": "38ec13d9b2f81c90add2216e3b11d27b3af4df0e8d97881cd8b581c92d8513f1",
    "11-15": "bba8cbd28b5a5f3040e76a44809eba34efe18976e04f330575e80ae6aeea32e5",
    "12-0": "bbd433ff29e2f87f6d38fe9d3ce66c8f019daaa6afd249dd0131bf42fead7d43",
    "12-1": "0afde855a7424682a2ccf8fa71212ddcc0fbcaca56ecea1b599291449c15eb7b",
    "12-2": "6de216b19f8e68f8e6c3fb9a6de0c2e25571e6d2f2507d62900aa88ceb06ed9f",
    "12-3": "8f50d6eeb8184236ab1ab34f900d45480cf4883398a82adfeb3b1757d76300cf",
    "12-4": "656e619038b70870d30f9de964f14d583740d352138178bba67bb2a10439c9b2",
    "12-5": "6907f2630e0e9ceefb347b5758e998a78c2a130ea8c5bad22b6310cb6ec7400e",
    "12-6": "37e48cc18de3f87d3e7a1cd682391f9a8de5736f485f14c3eef18a1f00ce0d38",
    "12-7": "fc5285621b0103a0e4fed02747d502e8f8aabf24551f475bff0004fd3ab5cecd",
    "12-8": "1dd5681f246ee0e432cc1bdd5436ee21ae8de82d0548b5088db8bd533e40332a",
    "12-9": "9c61b94175334bc4b2bdce0f2a5541fcc3f88f0f8a28deb74901af29754b9319",
    "12-10": "bdd8f21cfba8122a18d9aa038bbebeb1998c34d608b35c3c116b33b1d6c66e4b",
    "12-11": "e087bd41a450f3df4a9f715309ffb782fa21227a3904d966d87b9fcf49fde407",
    "12-12": "1c043f9eead186c115b77aa5ae901c4565a6f9b27575a401eda7c4b369ca114b",
    "12-13": "d2ce7913fa59e9da591642543c894ce0934b80d907f1516b01cf0d2d18585451",
    "12-14": "47b86df26a39d804422d21f460289255b5a735519487c248058ab6d5565dc5f3",
    "12-15": "8e116b77d5e428902742a29bb537d385f8be6445a6516c0bfbbcf77af76d4022",
    "13-0": "7b34dd8a25c9356ae010864a5a75afc930be000bb4522582c2e272974c217b55",
    "13-1": "26c002ea59be7bfac70c882d0debe5abcc62608c3f70f37eed6761146fab5a34",
    "13-2": "b1c3f0d2bbbb1996e903a186777097ae14dffa11fdd87ae33f84fd25b4fd155e",
    "13-3": "faa1b40b5ad9b66e98cfdecef6974d64a7a45b2f59c4d646c56e697bb22ea723",
    "13-4": "c3e9a50b6fc0d55ab1d4255074850353088976efb7a5917af54907eb3bb288da",
    "13-5": "326a5f23012ffd8a77ad8fdaaacbfa9bf9a899c1546c1468f73bbe7536414d58",
    "13-6": "30d5f49c1d4ffc7e0fe09345b2a969525fb686da58ac9b1a2fbacd6fd9bf9a02",
    "13-7": "c21e3d5ad16424c936aadc0d86dabf4cc8cd750455cbf6ec04cc0b30e633bf28",
    "13-8": "9b5856e7270ff09784507f90ffb465ca2b25154e5b02e3c1e1b7ed6bd67e5d49",
    "13-9": "e2226559729f25b12f03432ae8a7170852da1c5c1696551b9e12d9d6fe70c1d8",
    "13-10": "ee4104f6e2988bd2fae1c11c991ef523004690639b36852e97a1eed33e01d518",
    "13-11": "a95bc3a4801493bf75d5584e2b85f700f5b6f646543e4e49428ef5dd48d6004f",
    "13-12": "765367d9f7204a115d82663494d2b5b836e4d6272eebfabebcf83e17986c65f6",
    "13-13": "243a54d68a61d55e903963883e38b10908fe617b6ac134c2b2e93a3e59fa2231",
    "13-14": "012eea9523f8895aa0bcb8486ba8e302c2c5a64b55262d04e5d5130e0b4dd174",
    "13-15": "4cf4d757155752a9872c5db326ad77ccbc516d9df9b274c388ef2a201f03375d",
    "14-0": "68281377e03d961358d57b214f8d5cd6ea7c7876106c5024749ad32f6ed7ef4c",
    "14-1": "d2f677ab9b2d2ea6d68df9f6588cdb5264dee2e49ffd9882c37a9fece3338fac",
    "14-2": "15d6134fc37c8651ad682b7f5467195d98aebdab4c4a208a8d1430f3b91d4720",
    "14-3": "367c203a8cd6260a074430f989e2a25e71822eab37b11836d374e676bd082aee",
    "14-4": "ee75cb34cd87b0e5fd3ba25655b329f757eb16616be07e45c80d49812025471f",
    "14-5": "ffa35ec91d3ae8af115f771279d8d2bc68eea566d530424f1688fbb483019448",
    "14-6": "4978ff40b4dea3f1bf77733d74caa1bfc17d69512dd30452ee78310ca607c4f4",
    "14-7": "061baec1845d3321811a72ff976581df6bc3e43b80f229a932676e3a7cb6f916",
    "14-8": "feb538d0cc60aad9c5f08bd625b5a264497286f3018d5a41ed14781f3c605e3b",
    "14-9": "5fbeb1190687f73e6672bb696c302273b6332333cd189e5694af303c81d68cea",
    "14-10": "711a617f7d0af710625bc5ac7c98441d56a78c9b7efc9d536ba075c7a675e754",
    "14-11": "f5b5ecce18839d93a9301dc15824c77825ae71bacd0d8e860dd305d7ac5bd3fc",
    "14-12": "c8cdad44fa2fa5db1f274f0952d357453c22fadc233ef4b0b04c5ac7ebf5411d",
    "14-13": "865cd8dff1982e3742322d874db62e3f65bedc06a68e82468568f2e36b690e0c",
    "14-14": "20f1b61fcf9dd1572fc51f5d7241374c1e9030a5954d17b6509e29a9a2a6fffb",
    "14-15": "872ece20fa1876eb8c9f5382293ebe51c5845442b5dc39a8f648426b8eb89011",
}


@pytest.mark.parametrize("key", sorted(_PERTURB_DIGESTS))
def test_perturb_report_digest(key, capsys):
    dim, seed = key.split("-")
    code, out = run_cli(["perturb", "--dim", dim, "--trials", "1", "--seed", seed], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PERTURB_DIGESTS[key]


# sha256 of stdout for the saan-group argvs of the exact-dense benchmark,
# ``saan-group --k K --seed S``, keyed "K-S".  The group-law residual goes
# through BLAS, whose bits at k = 3 depend on its thread count, so the
# reports run in one process with one BLAS thread, as perfbench runs them;
# the digests are those of perfbench/oracle.json.
_SAAN_DIGESTS = {
    "2-0": "ea7d83bcdacc62e3bf75b82e7981c476f2b4be0186e9e6883b639dcf47f98c1d",
    "2-1": "be33ce7f3f4d2013c4d606d6551f2a7c0fef60a708b6825909a22d4f08e0428a",
    "2-2": "060ffcf2ba7b7525d8e7005acaf77af72e2571c06ef7496f75b837531981356c",
    "2-3": "a608d70971a13ae1cf7bc2cecb61264d990f0585114a384ad4fa7255e4bfaa7c",
    "2-4": "5a840033c2804aff45eeea2210ec63eadbea2a4daa5b43a6f01a6385a9ee7247",
    "2-5": "8a77484df8d4f08c4bed0d5923e561c456755fc564abfc0365b6bb9234272cb5",
    "2-6": "b8e9e1ec90edc91e04c23454d0ed4354dad915560ad4149b1e5dc31e777d002f",
    "2-7": "43207a963450f005d885bd2b1536c8743916dbc3b3b4cd73a319c47d94969e9e",
    "3-0": "448232230ac1ec24003a452439c3dc940df4840cfd257621645fb46f80c8bd98",
    "3-1": "647f00e4dbd2dfaeaff1c04df9bb3b1dbfb50f08d348cafdae94c7977b0c5554",
    "3-2": "e91b67cbc3589ddad763a98be735f8486f2327dd06c82ea4f56d50524bc9d560",
    "3-3": "a0a713327f95846bc104ac929d5bc0ca209c19e99e02bd770373b13ee5da5b2a",
    "3-4": "ea01e8f11c99c090bb54e03e7c5db9942112cf87a86ebb74439521e24e2bcec5",
    "3-5": "727acda464cd638944c8ac1b3a1fb3be3b0c1bd37e7e448e1c64c4199e62ce55",
    "3-6": "2f3321be4f3a31efb161f684eb98fced9ee48abf49f2882c8b94bec2f1b70a2e",
    "3-7": "5454c96e8d3e0c2e9721de7495a367ef84d5a39dda5d7396c5325ce7563bb812",
}

_DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, shlex, sys
from shiftlab.cli import main
out = {}
for argv in sys.argv[1:]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(argv))
    out[argv] = [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def saan_digests():
    argvs = {key: "saan-group --k {} --seed {}".format(*key.split("-")) for key in _SAAN_DIGESTS}
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, *argvs.values()],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        check=True,
    )
    got = json.loads(proc.stdout)
    return {key: got[argv] for key, argv in argvs.items()}


@pytest.mark.parametrize("key", sorted(_SAAN_DIGESTS))
def test_saan_group_report_digest(key, saan_digests):
    assert saan_digests[key] == [0, _SAAN_DIGESTS[key]]


# sha256 of stdout, with the exit code, for
# ``mixing --n N --seed S --radius R --horizon 60``, keyed "N-S-R": they pin
# the chain spans and pair plans of I + S on K^(2n) for n = 1..8
_MIXING_DIGESTS = {
    "1-0-0.25": (2, "5553fec5a6c723c65f968dad2c3375aaa9f2e484b217dcc5a83699f7dccb89d2"),
    "1-0-0.05": (2, "8e9c48dad2000564bd5b20c097b6adbf445db94b7839f07dabe5125c1f7e6211"),
    "1-0-0.01": (2, "0e8efff6e2efd3f7fbdb2879a26f781909dfc85f3968c890d4b924e2ce5d1cc0"),
    "1-1-0.25": (2, "1a7704e82f5e2f0c5e5f2faeae3011e5abf3874d98ee54ba6cdca07be18144b2"),
    "1-1-0.05": (2, "99c98971af7ec12c56f598f5008249653c1731c4255f12211109a08ffcef58ac"),
    "1-1-0.01": (2, "c2610c4a5b4bad3c33645dfd0db08488294a63d572d46133683d9a395d833b07"),
    "1-2-0.25": (2, "98d7454b8a39624c584f326212ab4ee832cef223d410cf855bbd7bbcc7189aac"),
    "1-2-0.05": (2, "ff7f27f21ef1250beea7291a818c94fac1421fefa81493826a7d268f57bc11e8"),
    "1-2-0.01": (2, "8cc4cc4e99b5337c7e21c7f187a6db970d12e4e328c60a6d5e54a9129a38690a"),
    "2-0-0.25": (0, "154bbf62b9a6a3ddd6d96a42c0395a8e7df64be3d5afac5263592f32d3a26b9e"),
    "2-0-0.05": (2, "515d2053b1bccffb907ddd69a911732b9724ff6c8acf0c68d4b5a6cd627c778d"),
    "2-0-0.01": (2, "fa5006f8d839c4ec068890950b3be22a6c70bca4719de7fe7f2f142d2e88a775"),
    "2-1-0.25": (0, "d15ee8944cb1c819a9dceb34038ef38bbbeb1eb5b419ba13ab800043e0817310"),
    "2-1-0.05": (2, "358c0bfa7de709559e05891ee0f28eb1d1be674aa7316c99b64d9077473f5906"),
    "2-1-0.01": (2, "5f996ca287312c19c839fb2079d085854eaf0476aa62f38b1114df51fb270094"),
    "2-2-0.25": (0, "ed17528c439bcbca408d9b07270805d573f1af715a41e0c1b1cff6348037d6a4"),
    "2-2-0.05": (2, "25bef1f68c2505cd34ebabb578687bfbdab889014e82c154a8c7ed4ae749421b"),
    "2-2-0.01": (2, "9d84e764b54b864b8e4444447cf463cbca1b126574a351862de0d824c9139735"),
    "3-0-0.25": (0, "c75a8e4931f177d91989e01de50e50245cd6da0b8f2b52d850a153a4f81262b5"),
    "3-0-0.05": (2, "3a6f2227234f45ecdff3e8ec5d1666ca30b79db2d872b1b245903d4ffcb6a1c8"),
    "3-0-0.01": (2, "dbdd82955f640d8a7854809af51f16bd833504594ab570ad687430e4c7406445"),
    "3-1-0.25": (0, "faa30b254652d13a17409e221d1d04182cc846709e4cc1220ad24ef99598192b"),
    "3-1-0.05": (2, "8ad2d12d93791cbc6df8ceff603bc796db590b4da9ded04c10edfde4bb62a5cd"),
    "3-1-0.01": (2, "7784b0116af5b1e06eb70769242df8440481dbab467ed163b57b5a6f34868806"),
    "3-2-0.25": (0, "ea032b8bba67855091acaf891d54b4abf296ec088732fb83d081717953ce305a"),
    "3-2-0.05": (2, "10ca76605b580208a893df88d0e0c7e01db168777cc33dc5095d26f549123391"),
    "3-2-0.01": (2, "6828782bea9643eb9701a90f10193be770fc8a5ca6e724d82478cf38452e5379"),
    "4-0-0.25": (0, "0bf0d3f67ddb44d9ace224fecb592baec3055527faf856f931dbfe12ba3a4bcb"),
    "4-0-0.05": (2, "44468070f4b1d53518b61b78df8b48cb2b2d634a82c5776a1c714388063b91d3"),
    "4-0-0.01": (2, "f7fd54b7273af6cfde859084faae6be07d8121d26e63e2dd2b8fd1f978e40868"),
    "4-1-0.25": (0, "c894baf83c4dd1a2b5f58998ee158c967cb54cb0ce8ad3e93c96369a2f7a5a9c"),
    "4-1-0.05": (2, "7346756f4e9d5e152a1243b72bbfa6ad24e9e498354a9b9bf9ceef1d14e08d3a"),
    "4-1-0.01": (2, "87c2dd489605e7101fa316c5f2fd2000a6d2646b595d3f886e6e46e6a669e3dd"),
    "4-2-0.25": (0, "52711d4825d6c97b5971577364e319b5ff156f02f4402da3bf41094689f8fe4c"),
    "4-2-0.05": (2, "49f0addbbe09c91d6a142dac503a88bdc23e129db0faf021c1a898ca0b8f6afc"),
    "4-2-0.01": (2, "c4da72a7b4f092384a7944f9a8eb8eaf3e9a3e14dbabd548f5950e7ca2a1e977"),
    "5-0-0.25": (0, "5fa7c94fe327df55b3c71faacfa7be76df977609da76a1a401e941ebdd07273b"),
    "5-0-0.05": (2, "15ed0a705d587c137f48dd348f829e511e236ffa514894428e76b467129bf6b5"),
    "5-0-0.01": (2, "885a0c1abf32ec0c4ae1c31cba80226b39cd45f816c82247db38f7199211a7cf"),
    "5-1-0.25": (0, "82e95a60eb34018362e2aeb884be22cac4dfb84f488855b979230c3d947caed6"),
    "5-1-0.05": (2, "aa72934d1d3ef1bb5e5e17188089219b3a3cbc552f1b9b8b6599ea8958568cd2"),
    "5-1-0.01": (2, "dc34c4dc6a53f06fba3c819788bae4258a6deec2dda14e4ba2b9c869664d4c87"),
    "5-2-0.25": (0, "9eab76bb63f6414be71b318e040517ce6b53d4e44557748e451bf5a32e1f2076"),
    "5-2-0.05": (2, "f06ab4347d8d1a54613dbd9b5345af943700fedb37a669b1b066dea1cf82aa58"),
    "5-2-0.01": (2, "102808c049ce4e28b2e9f6e39bb31f3997aa2d3c3df0ab2608062027a9274829"),
    "6-0-0.25": (0, "86ca669de4ab6f0e9dd5702821863cf20c7956257a901b72ebed1165429db88f"),
    "6-0-0.05": (2, "ec35b0c762d5d4f062af959a964984fbbb07adb88041143a8411e0d940be0801"),
    "6-0-0.01": (2, "c15a9a1ac7b030ad2b469fcba16c75417b9e4d38e756d2b6d0cdb24fcd843315"),
    "6-1-0.25": (0, "add54a37e908c414ed473460681d0e4b50d094224baf6025625ec32d5aec2289"),
    "6-1-0.05": (2, "f9dcbf7947c63fa7f2e7af160e8cf4d1c257329b5783c6d3a805c8c6ee426c18"),
    "6-1-0.01": (2, "01dd819f83932816d666569a1c831a6eff9b077db0cab95640ea51b381d2e7ca"),
    "6-2-0.25": (0, "bf6f57f46a24542491e129ba4444d193c2ccb761b15b3d21e680e8f9259e83b2"),
    "6-2-0.05": (2, "4f5a585f4e5ada7e0ddfcaaf952fa1391cc97877b76bd8c90b2582c310cf2821"),
    "6-2-0.01": (2, "cc6f503fd20b64bfd44c80f8df97efd0350460f26bfb34221245379a9e9c3f90"),
    "7-0-0.25": (0, "83f7190f71698e8c327d3f393f77130e253f18f7ab9de102ae26fc5014b82f35"),
    "7-0-0.05": (2, "8bb7573dce664a6398ce8e89d947c0b48815eeadd5870a2194c45cfe399e9f74"),
    "7-0-0.01": (2, "1e91d19ab19b23af9cf6522c6cea32b03f551d2ce97a026fddc0f19bca4dd552"),
    "7-1-0.25": (0, "68e6095128f7e6e29f564a5785621468350481c1cf8c85fa009e12d4f9f3bc0d"),
    "7-1-0.05": (2, "30c0c7e2adad0df25928d2d1543662fffa3a11f9fb805cf1ee7bc0c4ff8698b0"),
    "7-1-0.01": (2, "44561dbdbb77e6656bc1d7ab03b64a54d4e99eaa87b518e973346776f3b5e4cf"),
    "7-2-0.25": (0, "605f672024206fb35fd3607e75019178d29db5319f199e8de6ffd50107f544bf"),
    "7-2-0.05": (2, "1dd83f5b4b8e25d644d94a34c12ce0a8e4e226937972cb81f44a98f3458bd673"),
    "7-2-0.01": (2, "3167f189eb6026d29383c57e7ad39036b06d088d6551adf055fb50c0103aae95"),
    "8-0-0.25": (0, "ddca038ccf82a9041dcdf35f1176168fbf04933d3741d60b6978477881fe5ab4"),
    "8-0-0.05": (2, "e00978e07bbe7d145bb413bce14673e09e90c5904ef1a53350f093e9fcbd82cf"),
    "8-0-0.01": (2, "f1ff0805da2fbf66de2afc4c3f68fc964247e225d3de96d440944dda6f809df8"),
    "8-1-0.25": (0, "5f6b8ca5992ca0e2ac0b9afc5a37de92f1a22e99ba59feb330f67690d7b9fc6b"),
    "8-1-0.05": (2, "99802d5ed0c27b0c5659d220819bdd06917425249b9c5f9f420084c313e5b288"),
    "8-1-0.01": (2, "48a99a921b2bfa44b91e27e691dd39d6271304390562b7d87f79bdbdc3239bf1"),
    "8-2-0.25": (0, "02f5e9bbd24b698b5b3dc0e043521d59192e2312bfe8bc25a8193f66b1c74c9b"),
    "8-2-0.05": (2, "65d70a80c3877990cf086ec896a30cf1917825032068b1b28f2543c6d2eb837b"),
    "8-2-0.01": (2, "78f2da0f268600ad17bc7c52de17f6fbc2a97401332ad6f6c098e18fa23ac826"),
}


@pytest.mark.parametrize("key", sorted(_MIXING_DIGESTS))
def test_mixing_report_digest(key, capsys):
    n, seed, radius = key.split("-")
    argv = ["mixing", "--n", n, "--seed", seed, "--radius", radius, "--horizon", "60"]
    code, out = run_cli(argv, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _MIXING_DIGESTS[key]


# sha256 of stdout, with the exit code, for kerim and mixing past the
# benchmark's sizes: both reports start from the similarity J on K^(2n)
_SIMILARITY_DIGESTS = {
    "kerim --n 4 --z 1": (0, "9d1ab403a92e6d0fbd2e5553a4604583ffcd80cdcf7af53f2f14a1febf1a098d"),
    "kerim --n 4 --z 1j": (0, "5d16a655a35812b5ba30080fc5da15dd2bdde5e222d4148d06a53b63a644ab41"),
    "kerim --n 4 --z -1": (0, "f62ecf973d6995a791d7326b826c7779eede78f902b37816bd6c5e0ea2ede1d5"),
    "kerim --n 5 --z 1": (0, "91bd53c17c3c00ef6bb9a80137a2313e21b7e11e4d040da033260323c2d8dddc"),
    "kerim --n 5 --z 1j": (0, "bbbc3a56bcb456dc648eeea2d8a7583e0b894cfb73fdfe558d88c611e8c9fe99"),
    "kerim --n 5 --z -1": (0, "626947ca1dba2378f4ec18c13ab9de482f7eae6019364b080baccbebec8926b5"),
    "kerim --n 6 --z 1": (0, "680a6f2eeb535fb490be6df2e10c7d0c76a1a14e36a75250dbc0f18269879a50"),
    "kerim --n 6 --z 1j": (0, "96345bae0cbfcf31b58d1d930939750e51c20d613ab97fe3f3309c8f74ce7ca5"),
    "kerim --n 6 --z -1": (0, "5380da9214931918e360e6687c1b88e140d3721d5077f8d98c7283f242cbf42c"),
    "kerim --n 7 --z 1": (0, "e6fec023485e8fc50178e702b6a75319988e81b13498c2d95b5439fc2dc766ac"),
    "kerim --n 7 --z 1j": (0, "6c7cc5bed078698482fb1f01cb32f0636c9e66569d8d793e3b046e7e3fe860dd"),
    "kerim --n 7 --z -1": (0, "38968dfeae238281038f24df78b33f0f9e2a9d6c4fe9a6a490881252d118e605"),
    "kerim --n 8 --z 1": (0, "07eaffe79cdef965da625de385bd6295a4a6fc7d3fa186e45f2a48d3498cfd6c"),
    "kerim --n 8 --z 1j": (0, "0b069b7d188bb2c339a8cb60eaa2ea12c9499586c9c89f7074cfab7a203ba113"),
    "kerim --n 8 --z -1": (0, "e4680c69e066e3d3e22f3a2c2f267bf73c357e96399f860da12452d275d86673"),
    "kerim --n 9 --z 1": (0, "f439994ac127c9ce7298b6bf60468003e4b2577e918cd919490e8b355d2cff84"),
    "kerim --n 9 --z 1j": (0, "4009ed9205c39349686d713fd20fbdf119d108527f2113917e914800ac18321c"),
    "kerim --n 9 --z -1": (0, "6b407e97d03c685e26dbd133a657ebebcd4593099fb9bc565793b30a34f52491"),
    "kerim --n 10 --z 1": (0, "49a0134028883a02790e7da5a803056c9ca388faf64ef4c1d5c1ec61891093d2"),
    "kerim --n 10 --z 1j": (0, "0df04283a3cd4b8979958157d6c9b1f8301ef9450f4d08cb44a575a8293c7c4a"),
    "kerim --n 10 --z -1": (0, "d5550c96e2a1bb248ec89d19fdf5f4f73369f3d1b4b1ace7d1809a7e9f1a38f9"),
    "kerim --n 11 --z 1": (2, "365ea1fbc51e9b615e46c38a7a8f67fdcb6b7f899d23dcd7402f44da07c2c53c"),
    "kerim --n 11 --z 1j": (2, "6efc137ab33e30b1c10080ca208585b360a2c5d438bd3501af8d0df8376ba830"),
    "kerim --n 11 --z -1": (2, "2e761faabce78e79f002eb4d125ec58af629ece543e2a4196bc9efbe0074c2a4"),
    "kerim --n 12 --z 1": (0, "a1934be9b1689294d153276c5b056be9dbb0a4aae588e8590201809c9ea5b13e"),
    "kerim --n 12 --z 1j": (0, "60a72d4d4af9f6ce1642d6b1b30da49ed4138892a61bdd3274347f0045f392a4"),
    "kerim --n 12 --z -1": (0, "2ca80e3980712b0f5b8e194fd5f5f49650263fd9a43da2fd5f4b14098bcd0f14"),
    "mixing --n 9 --seed 0": (0, "6f986345a2e69170ca7624dd30dcb54b61722768329225a79dbd13dd3da9e111"),
    "mixing --n 10 --seed 0": (0, "527149b1d7cbd37f01d9cdc895c3e21c7b875c8b37b3db5d79d4be2a26c0fd09"),
    "mixing --n 11 --seed 0": (0, "c013d1d66727640242706f48522b2d89d492a2ce509de4bb6de9f95582b38f9d"),
    "mixing --n 12 --seed 0": (0, "e058fbd1bd76ecd56a7943e69889273721e0758051da63d4b253e3c47f7b0c24"),
}


@pytest.mark.parametrize("argv", sorted(_SIMILARITY_DIGESTS))
def test_similarity_report_digest(argv, capsys):
    code, out = run_cli(shlex.split(argv), capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _SIMILARITY_DIGESTS[argv]


def test_maps_to_compares_exactly():
    # T (0, 1/2) = (1/2, 0) = c x only for c = 1/2 at x = (1, 0)
    t = RationalMatrix([[0, 1], [0, 0]])
    # row 1 is (0, 1/2); the rows share the denominator 6
    u = RationalMatrix([[Fraction(1, 3), 5], [0, Fraction(1, 2)]])
    assert _maps_to(t, u, 1, Fraction(1, 2), [1, 0])
    assert not _maps_to(t, u, 1, Fraction(1, 2), [1, 1])
    assert not _maps_to(t, u, 1, Fraction(2), [1, 0])
    assert _maps_to(t * Fraction(-4, 3), u, 1, Fraction(-1, 3), [2, 0])
    # T (1/3, 5) = (5, 0)
    assert _maps_to(t, u, 0, Fraction(5), [1, 0])
    assert not _maps_to(t, u, 0, Fraction(1, 2), [1, 0])


def _dense_commute(a, b) -> bool:
    return (a @ b - b @ a).is_zero()


class TestSaanCommutators:
    """``_all_commute`` decides the commutators on sparse integer columns;
    the dense RationalMatrix difference is the reference."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", range(7))
    def test_generators_match_the_dense_difference(self, k, degree):
        count = math.comb(degree + k, k)
        for ntrunc in sorted({1, count // 2 + 1, min(count, 45), count}):
            mats = op.saan_generators(k, ntrunc, exact=True)
            pairs = list(itertools.combinations(mats, 2))
            assert all(_all_commute(pair) == _dense_commute(*pair) for pair in pairs)
            assert all(_dense_commute(*pair) for pair in pairs) and _all_commute(mats) is True

    def test_a_non_commuting_pair(self):
        # one nonzero per column, as the generators have: AB = e_1 e_1^T
        # and BA = e_2 e_2^T over the denominator 2
        a = RationalMatrix([[0, Fraction(1, 2)], [0, 0]])
        b = RationalMatrix([[0, 0], [3, 0]])
        assert not _dense_commute(a, b)
        assert _all_commute([a, b]) is False
        assert _all_commute([a, a, a @ a]) is True

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -2, Fraction(3, 4)]), min_size=n, max_size=n),
            min_size=2 * n,
            max_size=2 * n,
        )
    ))
    def test_any_pair_matches_the_dense_difference(self, rows):
        n = len(rows) // 2
        a, b = RationalMatrix(rows[:n]), RationalMatrix(rows[n:])
        assert _all_commute([a, b]) == _dense_commute(a, b)
        assert _all_commute([a, a @ a + a, b @ b @ b]) == _dense_commute(a, b @ b @ b)


_CONFIG_FLAGS = {
    "salas": st.fixed_dictionaries(
        {"n-max": st.integers(8, 256)},
        optional={
            "weights": st.sampled_from(["genshi-hc", "genshi-sc", "const", "symmetric-decay"]),
            "variant": st.sampled_from(["hypercyclic", "supercyclic"]),
            "m-max": st.integers(1, 3),
            "c": st.floats(0.5, 4.0),
            "m0": st.integers(1, 4),
            "full-traces": st.booleans(),
        },
    ),
    "detan": st.fixed_dictionaries(
        {}, optional={"max-n": st.integers(1, 4), "max-k": st.integers(1, 4)}
    ),
    "regions": st.fixed_dictionaries(
        {"samples": st.integers(10**4, 2 * 10**4)},
        optional={
            "builtin": st.sampled_from(["U", "V"]),
            "transform": st.sampled_from(["shift1", "exp", "identity"]),
            "seed": st.integers(0, 1000),
        },
    ),
    "mixing": st.fixed_dictionaries(
        {"horizon": st.integers(1, 12)},
        optional={
            "n": st.integers(1, 3),
            "radius": st.floats(0.05, 2.0),
            "seed": st.integers(0, 1000),
        },
    ),
}


def _stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("command", sorted(_CONFIG_FLAGS))
def test_config_gives_the_bytes_of_its_flags(command):
    @settings(max_examples=10, deadline=None)
    @given(_CONFIG_FLAGS[command], st.sampled_from(["json", "csv", "jsonl"]))
    def check(flags, fmt):
        argv = [command, "--format", fmt]
        for key, value in flags.items():
            if value is True:
                argv.append(f"--{key}")
            elif value is not False:
                argv += [f"--{key}", str(value)]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({"command": command, "format": fmt, "args": flags}))
            assert _stdout_of(["--config", str(cfg)]) == _stdout_of(argv)

    check()


GOLDEN_DIR = Path(__file__).parent / "goldens"

# stdout of trace-bearing runs and of the float probes' and grading's JSON
# reports, locked beside the emit-goldens suites.  density runs at horizon 100
# to stay fast; 24 cells leave 24 of 576 cells unhit, so a change in the
# binning shows.
TRACE_GOLDENS = {
    "volterra_trace.csv": "--format csv volterra --ngrid 256 --n-max 5",
    "kerim_trace.jsonl": "--format jsonl kerim --n 2 --k-max-exp 6",
    "tensor_trace.csv": "--format csv tensor --dims 2,1",
    "tensor_bounded_trace.csv": "--format csv tensor --dims 2,1 --mode bounded",
    "mixing_trace.csv": "--format csv mixing",
    "mixing_trace.jsonl": "--format jsonl mixing",
    "jordan_trace.csv": "--format csv jordan --n-max 2 --pairs 1",
    "mixing.json": "mixing",
    "density.json": "density --horizon 100 --cells 24",
    "salas_full.json": "salas --full-traces --n-max 64 --m-max 2",
    "symmetry.json": "symmetry --seed 2",
    "grading.json": "grading --preset random --degree 2 --seed 3",
}


class TestGoldens:
    @pytest.mark.parametrize(
        "golden", ["nilpotent", "salas", "regions", "volterra", *TRACE_GOLDENS]
    )
    def test_regeneration_is_byte_stable(self, golden, tmp_path, capsys):
        """Two regenerations agree with each other and with tests/goldens/."""
        runs = []
        for d in ("g1", "g2"):
            if golden in TRACE_GOLDENS:
                code, out = run_cli(TRACE_GOLDENS[golden].split(), capsys)
                assert code == 0
                runs.append([(golden, out.encode())])
            else:
                files = emit_goldens(golden, str(tmp_path / d))
                runs.append([(Path(f).name, Path(f).read_bytes()) for f in files])
        assert runs[0] == runs[1]
        assert len(runs[0]) >= 1
        assert runs[0] == [(name, (GOLDEN_DIR / name).read_bytes()) for name, _ in runs[0]]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "salas --full-traces",
                "aeffe737f17db1779ab1a321ffd48b42629dcae07ca10a9bb6862951040d8265",
            ),
            (
                "salas --full-traces --weights genshi-sc --variant supercyclic",
                "3eddc2d53bfba35c16704cf022b8316362274ac9d91002d0cac4cd3684729c49",
            ),
        ],
    )
    def test_full_traces_digest(self, argv, digest, capsys):
        """All 9 x 16384 traces at the default horizons: too large for a
        golden file, so the stdout is pinned by its sha256."""
        code, out = run_cli(argv.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_volterra_suite_emits_csv(self, tmp_path):
        files = emit_goldens("volterra", str(tmp_path))
        assert any(f.endswith(".csv") for f in files)

    def test_unknown_suite_is_input_error(self, capsys):
        code, _ = run_cli(["emit-goldens", "--suite", "nonsense"], capsys)
        assert code == 1

    def test_emit_goldens_cli(self, tmp_path, capsys):
        code, out = run_cli(
            ["emit-goldens", "--suite", "salas", "--out-dir", str(tmp_path)], capsys
        )
        assert code == 0
        assert (tmp_path / "salas_certificates.json").exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "shiftlab.cli", "detan", "--max-n", "2", "--max-k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "recurrence = direct"


# The CLI contract under arbitrary options: every argv of a subcommand ends in
# exit 0, 1 or 2, with no traceback and no warning.  Each subparser's options
# come from build_parser() itself, so a new option is fuzzed as it lands.
# Number-typed options draw these texts: non-finite, signed zero, subnormal,
# huge and comma-separated values.
_SPECIAL_NUMBERS = ("nan", "inf", "-inf", "0", "-1", "-0.0", "0.5", "3", "64", "1e-320", "1e308", "1e9", "1,0", "0,0")
_SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _is_size(action) -> bool:
    return action.type is _positive_ints or (action.nargs != 0 and type(action.default) is int)


def _option_texts(action):
    """Strategy for the text after ``action``'s flag (None for a switch), or
    None to leave the option out."""
    if action.dest == "help" or (action.type is None and action.dest != "weights" and not action.choices):
        return None  # --help, and the paths --out, --f-file and --out-dir
    if action.nargs == 0:
        return st.none()  # a switch such as --full-traces
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.dest == "weights":
        return st.sampled_from([*WEIGHT_FAMILIES, "file:missing.json"])
    if action.type is _positive_ints:
        # subspaces --which ebsk sweeps prod (2 d_j - 1) exponent tuples on
        # K^(prod 2 d_j): --dims 4,4 takes a fraction of a second
        return st.lists(st.integers(0, 4).map(str), min_size=1, max_size=2).map(",".join)
    if _is_size(action):
        return st.integers(-1, 6).map(str)
    return st.sampled_from(_SPECIAL_NUMBERS)


def _argv(name):
    """Strategy for ``name`` followed by all of its sizes or none, and any
    subset of its other options.  A default size beside a drawn one can
    cost minutes: saan-group --k 6 at the default --degree 8 exponentiates
    3003 x 3003 matrices."""
    sizes, others = {}, {}
    for action in _SUBPARSERS[name]._actions:
        texts = _option_texts(action) if action.option_strings else None
        if texts is not None:
            (sizes if _is_size(action) else others)[action.option_strings[0]] = texts
    parts = st.tuples(
        st.one_of(st.just({}), st.fixed_dictionaries(sizes)), st.fixed_dictionaries({}, optional=others)
    )
    return parts.map(
        lambda pair: [name, *(p for chosen in pair for flag, text in chosen.items() for p in (flag, text) if p is not None)]
    )


@pytest.mark.parametrize("name", sorted(set(_SUBPARSERS) - {"emit-goldens"}))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_argv_ends_in_an_exit_code(name, data):
    argv = data.draw(_argv(name), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
