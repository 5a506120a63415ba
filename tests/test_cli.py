"""End-to-end runner tests: exit codes, schema, golden stability."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from shiftlab.cli import emit_goldens, main
from shiftlab.reports import SCHEMA_VERSION


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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
        "argv",
        [
            "jordan --n-max 0",
            "detan --max-n 0",
            "symmetry --N -1",
            "density --horizon -5",
            "salas --c nan",
            "kerim --k-max-exp 1",
            "kerim --z abc",
            "tensor --steps ''",
            "density --box nan",
            "jordan --seed -1",
            "perturb --s 1/0",
            "salas --tol 0",
            "density --threshold -1",
            "density --threshold 0",
            "density --threshold 1.5",
        ],
    )
    def test_bad_input_is_rejected(self, argv, capsys):
        """Empty sweeps, non-finite numbers and malformed values end in an
        input error, not a verdict or a traceback."""
        code = main(shlex.split(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: argument" in captured.err

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


GOLDEN_DIR = Path(__file__).parent / "goldens"

# stdout of trace-bearing runs and of the float probes' JSON reports, locked
# beside the emit-goldens suites.  density runs at horizon 100 to stay fast;
# 24 cells leave 24 of 576 cells unhit, so a change in the binning shows.
TRACE_GOLDENS = {
    "volterra_trace.csv": "--format csv volterra --ngrid 256 --n-max 5",
    "kerim_trace.jsonl": "--format jsonl kerim --n 2 --k-max-exp 6",
    "tensor_trace.csv": "--format csv tensor --dims 2,1",
    "mixing_trace.csv": "--format csv mixing",
    "mixing_trace.jsonl": "--format jsonl mixing",
    "jordan_trace.csv": "--format csv jordan --n-max 2 --pairs 1",
    "mixing.json": "mixing",
    "density.json": "density --horizon 100 --cells 24",
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
