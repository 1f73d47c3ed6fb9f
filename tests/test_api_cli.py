"""Public-API surface and CLI tests."""

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self, rng):
        """The README quickstart, executed."""
        spec = repro.symmetric(order=4)
        kern = repro.make_kernel("inplane_fullslice", spec, (32, 4, 1, 4))
        g = rng.random((16, 32, 32)).astype(np.float32)
        out = kern.execute(g)
        ref = repro.apply_symmetric(spec, g)
        np.testing.assert_allclose(out, ref, rtol=1e-4)

        report = repro.simulate(kern, "gtx580", (512, 512, 256))
        assert report.mpoints_per_s > 0

    def test_autotune_exhaustive(self):
        res = repro.autotune("inplane_fullslice", 2, "gtx580", grid_shape=(128, 128, 64))
        assert res.method == "exhaustive"
        assert res.best_mpoints > 0

    def test_autotune_model(self):
        res = repro.autotune(
            "inplane_fullslice", 2, "gtx580", grid_shape=(128, 128, 64),
            method="model", beta=0.1,
        )
        assert res.method == "model"

    def test_autotune_unknown_method(self):
        with pytest.raises(repro.TuningError):
            repro.autotune("inplane_fullslice", 2, "gtx580", method="magic")

    def test_error_hierarchy(self):
        for exc in (
            repro.ConfigurationError,
            repro.ResourceLimitError,
            repro.UnknownDeviceError,
            repro.StencilDefinitionError,
            repro.GridShapeError,
            repro.TuningError,
        ):
            assert issubclass(exc, repro.ReproError)


class TestCli:
    def test_list_devices(self, capsys):
        assert main(["list-devices"]) == 0
        out = capsys.readouterr().out
        assert "gtx580" in out and "gtx680" in out

    def test_list_kernels(self, capsys):
        assert main(["list-kernels"]) == 0
        assert "inplane_fullslice" in capsys.readouterr().out

    def test_simulate(self, capsys):
        code = main([
            "simulate", "--kernel", "inplane_fullslice", "--order", "4",
            "--device", "gtx680", "--block", "32,4,1,2", "--grid", "256,256,64",
        ])
        assert code == 0
        assert "MPoint/s" in capsys.readouterr().out

    def test_tune_model(self, capsys):
        code = main([
            "tune", "--kernel", "inplane_fullslice", "--order", "2",
            "--device", "gtx580", "--grid", "128,128,64", "--method", "model",
        ])
        assert code == 0
        assert "model" in capsys.readouterr().out

    def test_tune_model_honours_no_register_blocking(self, capsys):
        import ast
        import json

        code = main([
            "tune", "--kernel", "inplane_fullslice", "--order", "4",
            "--device", "gtx580", "--grid", "256,256,64", "--method", "model",
            "--no-register-blocking", "--json",
        ])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["entries"]
        for entry in obj["entries"]:
            _tx, _ty, rx, ry = ast.literal_eval(entry["config"])
            assert (rx, ry) == (1, 1), entry["config"]

    def test_experiment_table(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiment_to_file(self, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        assert main(["experiment", "table2", "--out", str(out)]) == 0
        assert out.exists()

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])


class TestCliExtensions:
    def test_codegen_to_stdout(self, capsys):
        assert main(["codegen", "--order", "2", "--block", "32,4,1,2"]) == 0
        out = capsys.readouterr().out
        assert "__global__" in out and "#define RADIUS 1" in out

    def test_codegen_to_file_with_driver(self, tmp_path, capsys):
        out = tmp_path / "k.cu"
        code = main([
            "codegen", "--order", "4", "--block", "32,4,1,4",
            "--out", str(out), "--driver",
        ])
        assert code == 0
        text = out.read_text()
        assert "__global__" in text
        assert "std::swap(d_in, d_out)" in text

    def test_scaling_strong(self, capsys):
        assert main(["scaling", "--gpus", "1,2", "--grid", "128,128,64",
                     "--block", "32,4,1,2"]) == 0
        out = capsys.readouterr().out
        assert "strong scaling" in out
        assert "efficiency" in out

    def test_scaling_weak(self, capsys):
        assert main([
            "scaling", "--gpus", "1,2", "--grid", "128,128,32", "--weak",
            "--block", "32,4,1,2",
        ]) == 0
        assert "weak scaling" in capsys.readouterr().out

    def test_profile_compare(self, capsys):
        assert main([
            "profile", "--compare", "--order", "4", "--block", "32,4,1,2",
            "--grid", "256,256,64",
        ]) == 0
        out = capsys.readouterr().out
        assert "inplane_fullslice" in out
        assert "nvstencil" in out
        assert "camped" in out

    def test_profile_summary(self, capsys):
        assert main([
            "profile", "--order", "4", "--block", "32,4,1,2",
            "--grid", "256,256,64", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "simulated device timeline" in out
        assert "reconciles" in out
        assert "hot planes" in out


class TestCliExplain:
    """`repro tune --archive/--json` and the `repro explain` command."""

    TUNE = [
        "-q", "tune", "--kernel", "inplane_fullslice", "--order", "2",
        "--device", "gtx580", "--grid", "64,64,32", "--method", "model",
    ]

    def test_tune_json_ships_predicted_and_info_per_entry(self, capsys):
        import json

        assert main(self.TUNE + ["--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["method"] == "model"
        assert obj["entries"], "ranked entries must be present"
        for entry in obj["entries"]:
            assert entry["predicted"] is not None
            assert "occupancy" in entry["info"]
            assert "load_efficiency" in entry["info"]
        assert obj["best"] == obj["entries"][0]
        # No robustness option: the bare result, no session framing.
        assert "session" not in obj and "stats" not in obj

    def test_tune_archive_then_explain(self, tmp_path, capsys):
        archive = str(tmp_path / "a.jsonl")
        assert main(self.TUNE + ["--archive", archive]) == 0
        capsys.readouterr()
        assert main(["-q", "explain", "--archive", archive]) == 0
        out = capsys.readouterr().out
        assert "archived trial(s)" in out
        assert "calibration" in out

    def test_explain_json_with_landscape_and_metrics(self, tmp_path, capsys):
        import json

        archive = str(tmp_path / "a.jsonl")
        land = tmp_path / "land"
        metrics = tmp_path / "calib.prom"
        assert main(self.TUNE + ["--archive", archive]) == 0
        capsys.readouterr()
        code = main([
            "-q", "explain", "--archive", archive, "--json",
            "--landscape-out", str(land), "--metrics-out", str(metrics),
        ])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["measured"] >= 1
        assert set(obj["calibration"]) == {"model", "estimate"}
        assert (land / "landscape.csv").exists()
        specs = list(land.glob("*.vl.json"))
        assert specs
        for spec in specs:
            json.loads(spec.read_text())
        from repro.obs.export import lint_prometheus

        assert lint_prometheus(metrics.read_text()) == []

    def test_explain_unusable_archive_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["-q", "explain", "--archive", missing]) == 2
        garbage = tmp_path / "bad.jsonl"
        garbage.write_text("not a header\n")
        assert main(["-q", "explain", "--archive", str(garbage)]) == 2

    def test_robust_tune_json_carries_session_and_stats(self, tmp_path, capsys):
        import json

        journal = str(tmp_path / "j.jsonl")
        code = main([
            "-q", "tune", "--kernel", "inplane_fullslice", "--order", "2",
            "--device", "gtx580", "--grid", "64,64,32", "--method", "auto",
            "--journal", journal, "--json",
        ])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert "session" in obj and obj["session"].startswith("inplane")
        assert "stats" in obj
        assert obj["entries"]


class TestCliTuneSession:
    """Every ``repro tune`` runs one session: a plain tune's logs carry the
    same framing as a storm's."""

    def test_plain_tune_logs_are_framed_by_the_session(self, tmp_path, capsys):
        import json

        from repro.obs.recordlog import main as recordlog_main

        events, archive = tmp_path / "t.events", tmp_path / "t.archive"
        assert main([
            "-q", "tune", "--kernel", "inplane_fullslice", "--order", "2",
            "--device", "gtx580", "--grid", "64,64,32",
            "--events", str(events), "--archive", str(archive),
        ]) == 0
        capsys.readouterr()
        assert main(["-q", "top", "--json", "--events", str(events)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["session"] == "inplane_fullslice:o2:sp:gtx580:64x64x32"
        assert doc["finished"] is True
        assert doc["tiers"] == [["exhaustive", "won"]]
        assert recordlog_main([str(events), str(archive)]) == 0


class TestCliUnsupportedFamilies:
    """Families outside access-plan lowering and code generation: the
    archive records the refusal, and ``estimate``/``codegen`` exit 1 with
    one line on stderr instead of a traceback."""

    FAMILIES = ("naive", "blocking3d", "temporal", "texture")
    CLASSES = {
        "naive": "NaiveKernel",
        "blocking3d": "Blocking3DKernel",
        "temporal": "TemporalInPlaneKernel",
        "texture": "TexturePathKernel",
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_tune_archive_records_the_refusal(self, family, tmp_path, capsys):
        from repro.obs.archive import read_archive

        archive = tmp_path / "a.jsonl"
        code = main([
            "-q", "tune", "--kernel", family, "--order", "2",
            "--device", "gtx580", "--grid", "64,64,32",
            "--archive", str(archive),
        ])
        assert code == 0
        records = read_archive(archive, strict=True)[1]
        assert records
        for record in records:
            assert record.estimate is None
            assert record.estimate_error.startswith("UnsupportedPlanError: ")
            assert self.CLASSES[family] in record.estimate_error
        assert any(record.counters is not None for record in records)

    @pytest.mark.parametrize("command", ["estimate", "codegen"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_command_exits_1_with_one_line(self, family, command, capsys):
        code = main([
            command, "--kernel", family, "--order", "2", "--block", "32,4",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cannot ")
        assert self.CLASSES[family] in lines[0]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lint_emitted_exits_1_with_one_line(self, family, capsys):
        code = main([
            "lint", "--emitted", "--kernel", family, "--order", "2",
            "--block", "32,4",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "cannot generate code: code generation supports the symmetric "
            f"in-plane and nvstencil kernels, not {self.CLASSES[family]}"
        ]


class TestCliImports:
    @staticmethod
    def probe(code: str) -> str:
        """The last stdout line of ``code`` run in a fresh interpreter."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        return out.stdout.splitlines()[-1]

    def test_cli_imports_no_multiprocessing(self):
        """Every command runs in-process, so startup never pays for it."""
        assert self.probe(
            "import sys, repro.cli; "
            "print('multiprocessing' in sys.modules)"
        ) == "False"

    def test_tune_leaves_the_harness_unloaded(self):
        """``repro tune`` needs the tuners, not the experiment harness."""
        assert self.probe(
            "import sys, repro.cli; "
            "repro.cli.main(['-q', 'tune', '--grid', '64,64,32', "
            "'--no-register-blocking']); "
            "print('repro.harness' in sys.modules)"
        ) == "False"
