"""End-to-end runner tests: exit codes, schema, golden stability."""

import contextlib
import hashlib
import io
import json
import math
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.cli import NEGATIVE_VERDICTS, TENSOR_MODES, build_parser, emit_goldens, main
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
