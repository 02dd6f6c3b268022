import dataclasses
import importlib.metadata
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rodtwin as rt
from rodtwin import cli, io, walk
from rodtwin.cli import main

from conftest import degenerate_field, put_cell, sweep_rows, two_mode_field

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One generated benchmark dataset plus a default fitted model."""
    root = tmp_path_factory.mktemp("cliws")
    assert main(["generate", "--output", str(root / "burgers.csv")]) == 0
    assert (
        main(
            [
                "fit",
                "--input",
                str(root / "burgers.csv"),
                "--output",
                str(root / "model.txt"),
            ]
        )
        == 0
    )
    return root


class TestGenerate:
    def test_outputs_and_stdout(self, ws, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["generate", "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "wrote %s (101x301)" % out in captured
        digest = re.search(r"sha256: ([0-9a-f]{64})", captured)
        assert digest is not None
        assert digest.group(1) == io.file_sha256(out)
        meta = io.read_meta(str(out) + ".meta")
        assert meta["nu"] == "0.01"
        assert meta["quad_order"] == "100"
        assert meta["dx"] == "0.02"
        # the CSV, its metadata and the memo of its parsed table
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "data.csv.meta", "data.csv.npy"]

    def test_t_final_off_the_step_exits_2(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        argv = ["generate", "--output", str(out), "--t-final", "0.025", "--dt", "0.01"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "rodtwin generate: error: "
            "t_final = 0.025 must be one or more whole steps of dt = 0.01\n"
        )
        assert not out.exists()

    def test_step_count_past_the_float_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        argv = ["generate", "--output", str(out), "--t-final", "1e300", "--dt", "1e-300"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "rodtwin generate: error: "
            "t_final = 1e+300 over dt = 1e-300 is more steps than a float holds\n"
        )
        assert not out.exists()

    def test_memo_that_cannot_be_renamed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        os.mkdir(str(out) + ".npy")
        argv = ["generate", "--output", str(out), "--grid-points", "11", "--t-final", "0.1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("rodtwin generate: error: ") and "data.csv.npy" in err
        # the temporary memo is removed; the CSV and its .meta stay
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "data.csv.meta", "data.csv.npy"]

    def test_matches_library_dataset(self, ws, burgers_snapshot):
        back = io.read_snapshot_csv(ws / "burgers.csv")
        assert np.array_equal(back.values, burgers_snapshot.values)
        assert np.array_equal(back.x, burgers_snapshot.x)
        assert np.array_equal(back.t, burgers_snapshot.t)

    def test_default_run_is_silent_and_unchanged(self, tmp_path, capsys, burgers_snapshot):
        out = tmp_path / "data.csv"
        assert main(["generate", "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        plain = tmp_path / "plain.csv"
        io.write_snapshot_csv(plain, burgers_snapshot)
        assert out.read_bytes() == plain.read_bytes()

    def test_unresolved_viscosity_warns_and_succeeds(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["generate", "--output", str(out), "--nu", "0.001"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("rodtwin generate: warning: max|u| = 2.03")
        assert "quad_order 100" in lines[0] and "nu = 0.001" in lines[0]
        assert io.read_snapshot_csv(out).values.shape == (101, 301)

    def test_defaults_equal_explicit_flags(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["--grid-points", "31", "--dt", "0.1", "--t-final", "0.5"]
        assert main(["generate", "--output", str(a)] + args) == 0
        assert (
            main(
                ["generate", "--output", str(b)]
                + args
                + ["--nu", "0.01", "--quad-order", "100"]
            )
            == 0
        )
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("grid-points = 31\ndt = 0.1\nt-final = 0.5\n")
        out = tmp_path / "c.csv"
        assert main(["generate", "--output", str(out), "--config", str(cfg)]) == 0
        assert "(31x6)" in capsys.readouterr().out
        assert (
            main(
                [
                    "generate",
                    "--output",
                    str(out),
                    "--config",
                    str(cfg),
                    "--grid-points",
                    "21",
                ]
            )
            == 0
        )
        assert "(21x6)" in capsys.readouterr().out

    def test_config_keys_of_other_commands_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("grid-points = 31\ndt = 0.1\nt-final = 0.5\nrank = 3\n")
        data = tmp_path / "c.csv"
        assert main(["generate", "--output", str(data), "--config", str(cfg)]) == 0
        assert "(31x6)" in capsys.readouterr().out
        model = tmp_path / "m.txt"
        argv = ["--input", str(data), "--output", str(model), "--config", str(cfg)]
        assert main(["fit"] + argv) == 0
        assert io.parse_report_text(capsys.readouterr().out).rank == 3

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = main(
            ["generate", "--output", str(tmp_path / "x.csv"), "--config", "nope.cfg"]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("nu", "inf"),
            ("nu", "-inf"),
            ("nu", "nan"),
            ("t_final", "inf"),
            ("dt", "inf"),
        ],
    )
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, flag, value):
        option = "--" + flag.replace("_", "-")
        argv = ["generate", "--output", str(tmp_path / "x.csv")]
        assert main(argv + [option + "=" + value]) == 1
        assert "invalid value for %s" % option in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        config = tmp_path / "g.cfg"
        config.write_text("%s = %s\n" % (flag, value))
        assert main(argv + ["--config", str(config)]) == 1
        assert "invalid value for %s" % option in capsys.readouterr().err


class TestFit:
    def test_report_on_stdout(self, ws, tmp_path, capsys):
        out = tmp_path / "m.txt"
        rc = main(
            ["fit", "--input", str(ws / "burgers.csv"), "--output", str(out)]
        )
        assert rc == 0
        report = io.parse_report_text(capsys.readouterr().out)
        assert report.rank == 10
        assert report.seed == 1
        assert report.absolute_error < 1e-4
        assert report.rod_projection_norm > report.fourier_projection_norm
        assert out.exists()

    def test_byte_determinism(self, ws, tmp_path, capsys):
        out1, out2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        assert main(["fit", "--input", str(ws / "burgers.csv"), "--output", str(out1)]) == 0
        text1 = capsys.readouterr().out
        assert main(["fit", "--input", str(ws / "burgers.csv"), "--output", str(out2)]) == 0
        text2 = capsys.readouterr().out
        assert out1.read_bytes() == out2.read_bytes()
        assert text1 == text2

    def test_rank_and_seed_flags(self, ws, tmp_path, capsys):
        rc = main(
            [
                "fit",
                "--input",
                str(ws / "burgers.csv"),
                "--output",
                str(tmp_path / "m.txt"),
                "--rank",
                "3",
                "--seed",
                "5",
            ]
        )
        assert rc == 0
        report = io.parse_report_text(capsys.readouterr().out)
        assert report.rank == 3
        assert report.seed == 5

    def test_reorthonormalize_flag(self, ws, tmp_path, capsys):
        rc = main(
            [
                "fit",
                "--input",
                str(ws / "burgers.csv"),
                "--output",
                str(tmp_path / "m.txt"),
                "--reorthonormalize",
            ]
        )
        assert rc == 0
        report = io.parse_report_text(capsys.readouterr().out)
        assert report.gram_deviation <= 1e-8

    def test_rank_above_data_is_computation_error(self, ws, tmp_path, capsys):
        out = tmp_path / "m.txt"
        rc = main(
            [
                "fit",
                "--input",
                str(ws / "burgers.csv"),
                "--output",
                str(out),
                "--rank",
                "400",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "rodtwin fit: error: rank 400 outside [1, 101] for this snapshot matrix\n"
        )
        assert not out.exists()

    def test_missing_input_is_computation_error(self, tmp_path, capsys):
        rc = main(
            [
                "fit",
                "--input",
                str(tmp_path / "absent.csv"),
                "--output",
                str(tmp_path / "m.txt"),
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_csv_and_selection(self, ws, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--input",
                str(ws / "burgers.csv"),
                "--output",
                str(out),
                "--max-rank",
                "6",
            ]
        )
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(r"selected_rank = \d+", line)
        rows = sweep_rows(out)
        assert [row[0] for row in rows] == [1, 2, 3, 4, 5, 6]
        assert all(not error for *_, error in rows)
        for _, j1, j2, dominated, _ in rows:
            expect = any(
                q1 <= j1 and q2 <= j2 and (q1 < j1 or q2 < j2) for _, q1, q2, _, _ in rows
            )
            assert dominated == expect

    def test_byte_determinism(self, ws, tmp_path, capsys):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        base = ["sweep", "--input", str(ws / "burgers.csv"), "--max-rank", "6"]
        assert main(base + ["--output", str(out1)]) == 0
        text1 = capsys.readouterr().out
        assert main(base + ["--output", str(out2)]) == 0
        text2 = capsys.readouterr().out
        assert out1.read_bytes() == out2.read_bytes()
        assert text1 == text2


class TestEvaluate:
    def test_emits_plot_data_and_same_report(self, ws, tmp_path, capsys):
        assert (
            main(
                [
                    "fit",
                    "--input",
                    str(ws / "burgers.csv"),
                    "--output",
                    str(tmp_path / "m.txt"),
                ]
            )
            == 0
        )
        fit_stdout = capsys.readouterr().out
        prefix = str(tmp_path / "twin")
        rc = main(
            [
                "evaluate",
                "--input",
                str(ws / "burgers.csv"),
                "--model",
                str(tmp_path / "m.txt"),
                "--output",
                prefix,
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == fit_stdout

        recon = io.read_snapshot_csv(prefix + "_reconstruction.csv")
        data = io.read_snapshot_csv(ws / "burgers.csv")
        assert recon.values.shape == data.values.shape
        # the twin approximates the initial profile at model accuracy
        assert np.abs(recon.values[:, 0] - data.values[:, 0]).max() < 1e-4
        assert np.abs(recon.values[0]).max() < 1e-10
        assert np.abs(recon.values[-1]).max() < 1e-10

        mode_lines = (tmp_path / "twin_modes.csv").read_text().splitlines()
        assert mode_lines[0].split(",")[:3] == ["x", "mode1_re", "mode1_im"]
        assert len(mode_lines) == 102
        table = np.array(
            [[float(c) for c in ln.split(",")] for ln in mode_lines[1:]]
        )
        for j in range(10):
            z = table[:, 1 + 2 * j] + 1j * table[:, 2 + 2 * j]
            norm = np.sqrt(0.02 * np.sum(np.abs(z) ** 2))
            assert norm == pytest.approx(1.0, abs=1e-10)

        amp_lines = (tmp_path / "twin_amplitudes.csv").read_text().splitlines()
        assert amp_lines[0].split(",")[:3] == ["t", "a1_re", "a1_im"]
        assert len(amp_lines) == 302

    def test_report_matches_fit_at_rank_15(self, ws, tmp_path, capsys):
        argv = ["--input", str(ws / "burgers.csv"), "--output"]
        assert main(["fit"] + argv + [str(tmp_path / "m.txt"), "--rank", "15"]) == 0
        fit_stdout = capsys.readouterr().out
        rc = main(
            ["evaluate", "--model", str(tmp_path / "m.txt")]
            + argv
            + [str(tmp_path / "twin")]
        )
        assert rc == 0
        assert capsys.readouterr().out == fit_stdout

    def test_malformed_model_row_reports_line(self, ws, tmp_path, capsys):
        lines = (ws / "model.txt").read_text().splitlines()
        line_no = lines.index("[right]") + 3
        lines[line_no - 1] = lines[line_no - 1].rsplit(",", 2)[0]
        bad = tmp_path / "bad_model.txt"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "evaluate",
                "--input",
                str(ws / "burgers.csv"),
                "--model",
                str(bad),
                "--output",
                str(tmp_path / "t"),
            ]
        )
        assert rc == 2
        assert "bad_model.txt:%d:" % line_no in capsys.readouterr().err

    def test_bad_header_value_reports_line(self, ws, tmp_path, capsys):
        lines = (ws / "model.txt").read_text().splitlines()
        line_no = [ln.partition(" =")[0] for ln in lines].index("rank") + 1
        lines[line_no - 1] = "rank = 2.5"
        bad = tmp_path / "bad_model.txt"
        bad.write_text("\n".join(lines) + "\n")
        argv = ["--input", str(ws / "burgers.csv"), "--model", str(bad)]
        rc = main(["evaluate"] + argv + ["--output", str(tmp_path / "t")])
        assert rc == 2
        assert "bad_model.txt:%d: bad rank value" % line_no in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize(
        "key, value", [("x0", "nan"), ("x_end", "inf"), ("t_end", "0")]
    )
    def test_bad_grid_end_reports_line(self, ws, tmp_path, capsys, command, key, value):
        # x0 is the first [x] row, x_end and t_end the last [x] and [t] rows
        lines = (ws / "model.txt").read_text().splitlines()
        ends = {"x0": ("[x]", 1), "x_end": ("[t]", -1), "t_end": ("[left]", -1)}
        marker, offset = ends[key]
        line_no = lines.index(marker) + offset + 1
        lines[line_no - 1] = value
        bad = tmp_path / "bad_model.txt"
        bad.write_text("\n".join(lines) + "\n")
        argv = ["--input", str(ws / "burgers.csv"), "--model", str(bad)]
        if command == "evaluate":
            argv += ["--output", str(tmp_path / "t")]
        assert main([command] + argv) == 2
        reason = "non-finite value"
        if key == "t_end":
            reason = "t grid must be strictly increasing"
        assert capsys.readouterr().err == "rodtwin %s: error: %s:%d: %s\n" % (
            command,
            bad,
            line_no,
            reason,
        )

    def test_unknown_model_format_reports_line(self, ws, tmp_path, capsys):
        # a format 2 file held the complex views and the grid ends: refit
        text = (ws / "model.txt").read_text()
        old = tmp_path / "old_model.txt"
        old.write_text(text.replace("format = 3\n", "format = 2\n", 1))
        argv = ["--input", str(ws / "burgers.csv"), "--model", str(old)]
        output = ["--output", str(tmp_path / "t")]
        for command, extra in (("evaluate", output), ("compare", [])):
            assert main([command] + argv + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "rodtwin %s: error: %s:1: unsupported model format '2' (expected 3)\n"
                % (command, old)
            )

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662"])
    @pytest.mark.parametrize("section", ["x", "t", "left", "right", "eigenvalues"])
    def test_float_only_model_cell_exits_2(
        self, ws, tmp_path, capsys, command, cell, section
    ):
        # float() takes these cells and numpy's C reader, which reads
        # every table, refuses them
        bad = tmp_path / "bad_model.txt"
        bad.write_bytes((ws / "model.txt").read_bytes())
        line_no = put_cell(bad, section, cell)
        argv = ["--input", str(ws / "burgers.csv"), "--model", str(bad)]
        if command == "evaluate":
            argv += ["--output", str(tmp_path / "t")]
        assert main([command] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "rodtwin %s: error: %s:%d: bad cell (" % (command, bad, line_no)
        )

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_non_finite_model_cell_reports_line(self, ws, tmp_path, capsys, command):
        lines = (ws / "model.txt").read_text().splitlines()
        line_no = lines.index("[right]") + 2
        lines[line_no - 1] = "nan," + lines[line_no - 1].partition(",")[2]
        bad = tmp_path / "bad_model.txt"
        bad.write_text("\n".join(lines) + "\n")
        argv = ["--input", str(ws / "burgers.csv"), "--model", str(bad)]
        if command == "evaluate":
            argv += ["--output", str(tmp_path / "t")]
        assert main([command] + argv) == 2
        err = capsys.readouterr().err
        assert err == "rodtwin %s: error: %s:%d: non-finite value\n" % (
            command,
            bad,
            line_no,
        )

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_unpaired_eigenvalue_reports_line(self, ws, tmp_path, capsys, command):
        # the rank-10 benchmark model opens with a conjugate pair: a second
        # eigenvalue that is not the first's conjugate breaks the pair,
        # which the error places at the pair's first [eigenvalues] row
        lines = (ws / "model.txt").read_text().splitlines()
        row = lines.index("[eigenvalues]") + 2
        re, im = lines[row].split(",")
        lines[row] = "%s,%r" % (re, float(im) - 1.0)
        bad = tmp_path / "bad_model.txt"
        bad.write_text("\n".join(lines) + "\n")
        argv = ["--input", str(ws / "burgers.csv"), "--model", str(bad)]
        if command == "evaluate":
            argv += ["--output", str(tmp_path / "t")]
        assert main([command] + argv) == 2
        assert capsys.readouterr().err == (
            "rodtwin %s: error: %s:%d: mode 0 is neither real nor the first of"
            " an exactly conjugate pair\n" % (command, bad, row)
        )

    def test_model_grid_mismatch(self, ws, tmp_path, capsys):
        small = tmp_path / "small.csv"
        assert (
            main(
                [
                    "generate",
                    "--output",
                    str(small),
                    "--grid-points",
                    "31",
                    "--dt",
                    "0.1",
                    "--t-final",
                    "0.5",
                ]
            )
            == 0
        )
        capsys.readouterr()
        rc = main(
            [
                "evaluate",
                "--input",
                str(small),
                "--model",
                str(ws / "model.txt"),
                "--output",
                str(tmp_path / "t"),
            ]
        )
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_each_step_checked_against_itself(self, tmp_path, capsys, command):
        # a dx of 10 must not widen the tolerance on a dt of 1e-6
        x = np.arange(31) * 10.0
        t = np.arange(12) * 1e-6
        values = np.outer(np.sin(np.pi * x / 300.0), 0.9 ** np.arange(12))
        fitted, shifted = tmp_path / "fitted.csv", tmp_path / "shifted.csv"
        io.write_snapshot_csv(fitted, rt.SnapshotMatrix(values, x, t))
        io.write_snapshot_csv(shifted, rt.SnapshotMatrix(values, x, t * (1 + 1e-6)))
        model = str(tmp_path / "m.txt")
        argv = ["--input", str(fitted), "--rank", "1"]
        assert main(["fit"] + argv + ["--output", model]) == 0
        extra = ["--output", str(tmp_path / "t")] if command == "evaluate" else []
        assert main([command, "--input", str(fitted), "--model", model] + extra) == 0
        capsys.readouterr()
        rc = main([command, "--input", str(shifted), "--model", model] + extra)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "rodtwin %s: error: model spacing does not match the dataset grid\n"
            % command
        )

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_model_without_format_line_exits_2(self, ws, tmp_path, capsys, command):
        dropped = ("format",)
        lines = (ws / "model.txt").read_text().splitlines()
        kept = [ln for ln in lines if ln.partition(" =")[0] not in dropped]
        assert len(lines) - len(kept) == len(dropped)
        old = tmp_path / "old_model.txt"
        old.write_text("\n".join(kept) + "\n")
        argv = ["--input", str(ws / "burgers.csv"), "--model", str(old)]
        if command == "evaluate":
            argv += ["--output", str(tmp_path / "t")]
        assert main([command] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rodtwin %s: error: %s: missing header keys %s\n" % (
            command,
            old,
            list(dropped),
        )

    def test_shifted_grid_ends_adopt_dataset_grids(self, ws, tmp_path, capsys):
        # saved grids three steps off: the steps match, so the model is
        # accepted and scored on the dataset's own grid points
        argv = ["--input", str(ws / "burgers.csv")]
        assert main(["fit"] + argv + ["--output", str(tmp_path / "m.txt")]) == 0
        fit_stdout = capsys.readouterr().out
        model = io.read_model(ws / "model.txt")
        shifted = tmp_path / "shifted_model.txt"
        io.write_model(
            shifted,
            dataclasses.replace(
                model, x=model.x + 3 * model.dx, t=model.t - 3 * model.dt
            ),
        )
        assert not np.array_equal(io.read_model(shifted).x, model.x)
        for name, path in (("plain", ws / "model.txt"), ("shifted", shifted)):
            rc = main(
                ["evaluate"]
                + argv
                + ["--model", str(path), "--output", str(tmp_path / name)]
            )
            assert rc == 0
            assert capsys.readouterr().out == fit_stdout
        for suffix in ("_reconstruction.csv", "_modes.csv", "_amplitudes.csv"):
            plain = (tmp_path / ("plain" + suffix)).read_bytes()
            assert (tmp_path / ("shifted" + suffix)).read_bytes() == plain

    def test_twin_built_once(self, ws, tmp_path, monkeypatch, capsys):
        calls = []
        build = rt.rod.reconstruct

        def counted(model):
            calls.append(model.rank)
            return build(model)

        monkeypatch.setattr(rt.rod, "reconstruct", counted)
        argv = ["--input", str(ws / "burgers.csv")]
        assert main(["fit"] + argv + ["--output", str(tmp_path / "m.txt")]) == 0
        assert calls == []
        rc = main(
            ["evaluate"]
            + argv
            + ["--model", str(tmp_path / "m.txt"), "--output", str(tmp_path / "t")]
        )
        assert rc == 0
        assert calls == [10]


class TestSnapshotFaults:
    """What SnapshotMatrix rejects in a snapshot CSV exits 2 at its path:line."""

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("x,0,1,2\n0,1,2,3\n1,1,nan,3\n2,inf,2,3\n", 3, "non-finite"),
            ("x,0,1,2\n0,1,2,3\n1,1,2,3\n2,1,2,-inf\n", 4, "non-finite"),
            ("x,0,1,3\n0,1,2,3\n1,1,2,3\n", 1, "t grid must be uniformly spaced"),
            ("x,0\n0,1\n1,2\n", 1, "t grid needs at least 2 points"),
            ("x,0,1\n0,1,2\n1,1,2\n3,1,2\n", 4, "x grid must be uniformly"),
            ("x,0,1\n0,1,2\n1,1,2\n1,1,2\n", 4, "x grid must be strictly"),
            ("x,0,1\n0,1,2\nnan,1,2\n2,1,2\n", 3, "x grid contains non-finite"),
        ],
    )
    def test_fault_reports_line(self, tmp_path, capsys, text, line_no, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        rc = main(["fit", "--input", str(path), "--output", str(tmp_path / "m.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data.csv:%d: " % line_no in err
        assert message in err


def test_bad_time_value_is_computation_error(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("x,0,zero,2\n0,1,2,3\n1,3,4,5\n")
    rc = main(["fit", "--input", str(path), "--output", str(tmp_path / "m.txt")])
    assert rc == 2
    # the header's times are read as its data rows are
    err = capsys.readouterr().err
    assert err.startswith("rodtwin fit: error: %s:1: bad cell (" % path)
    assert "'zero'" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["x,0,1\n", "x,0,1\n0,1,2\n"])
def test_short_csv_prints_one_error_line(tmp_path, text):
    # numpy's reader warns on a header-only file; a user sees only the error
    (tmp_path / "data.csv").write_text(text)
    result = subprocess.run(
        [sys.executable, "-m", "rodtwin.cli", "fit", "--input", "data.csv"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_checkout_env(),
        cwd=tmp_path,
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "rodtwin fit: error: data.csv: need a header and at least 2 data rows"
    ]


def _truncating(n):
    return "warning: truncating %d near-zero singular directions before inversion" % n


_ALL_ZERO = "all singular values are negligible; nothing to propagate"
_ZERO_T5 = "zero column(s) in correlation at time index [5]"
_NO_POINT = "error: no successful sweep points; rank 1 failed: "
_ZERO_RSVD = "warning: rsvd of an all-zero matrix"
_DEFICIENT_QR = "warning: rank-deficient QR: 3 negligible diagonal entries in R"


class TestDegenerateData:
    """The README's degenerate-data table: fit --rank 4 and sweep
    --max-rank 4 on each case, exit code and stderr lines."""

    @pytest.mark.parametrize(
        "case, fit_rc, fit_err, sweep_rc, sweep_err",
        [
            (
                "all-zero",
                2,
                [_ZERO_RSVD, "error: " + _ALL_ZERO],
                2,
                [_ZERO_RSVD, _NO_POINT + _ALL_ZERO],
            ),
            ("zero-column-t5", 2, ["error: " + _ZERO_T5], 2, [_NO_POINT + _ZERO_T5]),
            ("zero-column-t0", 2, ["error: zero data column(s) at index [0]"], 0, []),
            (
                "rank-one",
                0,
                [_DEFICIENT_QR, _truncating(3)],
                0,
                [_DEFICIENT_QR] + [_truncating(n) for n in (1, 2, 3)],
            ),
        ],
    )
    def test_fit_and_sweep(
        self, tmp_path, capsys, case, fit_rc, fit_err, sweep_rc, sweep_err
    ):
        data = tmp_path / "data.csv"
        io.write_snapshot_csv(data, degenerate_field(case))
        for command, rc, err, flags in (
            ("fit", fit_rc, fit_err, ["--rank", "4", "--output", "m.txt"]),
            ("sweep", sweep_rc, sweep_err, ["--max-rank", "4", "--output", "s.csv"]),
        ):
            flags[-1] = str(tmp_path / flags[-1])
            assert main([command, "--input", str(data)] + flags) == rc
            lines = capsys.readouterr().err.splitlines()
            assert lines == ["rodtwin %s: %s" % (command, line) for line in err]


class TestOverflowingData:
    """On the two-mode field scaled by 1e77 the paper correlation's a^4
    overflows: fit and evaluate name the non-finite report field, and
    sweep names the first failed rank, each exiting 2."""

    @pytest.fixture(scope="class")
    def big_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("overflow") / "big.csv"
        io.write_snapshot_csv(path, two_mode_field(1e77))
        return path

    REPORT_ERROR = "error: quality report field correlation is not finite (nan)"

    def _fit(self, big_csv, model):
        argv = ["fit", "--input", str(big_csv), "--output", str(model), "--rank", "4"]
        return main(argv)

    def test_fit_exits_2(self, big_csv, tmp_path, capsys):
        assert self._fit(big_csv, tmp_path / "m.txt") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the one error line, with no numpy overflow warnings before it
        assert captured.err.splitlines() == ["rodtwin fit: " + self.REPORT_ERROR]
        # the report fails before the model is written
        assert not (tmp_path / "m.txt").exists()

    def test_evaluate_exits_2(self, big_csv, tmp_path, capsys):
        model = tmp_path / "m.txt"
        io.write_model(model, rt.fit(two_mode_field(1e77), 4, 1))
        argv = ["evaluate", "--input", str(big_csv), "--model", str(model)]
        assert main(argv + ["--output", str(tmp_path / "twin")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["rodtwin evaluate: " + self.REPORT_ERROR]

    def test_sweep_names_first_failed_rank(self, big_csv, tmp_path, capsys):
        argv = ["sweep", "--input", str(big_csv), "--max-rank", "4"]
        assert main(argv + ["--output", str(tmp_path / "s.csv")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            r"rodtwin sweep: error: no successful sweep points; rank 1 failed:"
            r" non-finite objectives j1=.*, j2=nan",
            line,
        )


class TestCompare:
    def test_model_dominates(self, ws, tmp_path, capsys):
        argv = ["--input", str(ws / "burgers.csv")]
        assert main(["fit"] + argv + ["--output", str(tmp_path / "m.txt")]) == 0
        report = capsys.readouterr().out
        rc = main(["compare"] + argv + ["--model", str(tmp_path / "m.txt")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dominates = true" in out
        ratio = float(re.search(r"ratio = (\S+)", out).group(1))
        assert ratio > 5.0
        # fit's report and compare print the same projection numbers
        for fit_key, compare_key in (
            ("rod_projection_norm", "rho_rod"),
            ("fourier_projection_norm", "rho_fourier"),
        ):
            printed = re.search(r"%s = (\S+)" % fit_key, report).group(1)
            assert re.search(r"%s = (\S+)" % compare_key, out).group(1) == printed

    def test_self_test_ties(self, ws, capsys):
        rc = main(["compare", "--input", str(ws / "burgers.csv"), "--self-test"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "dominates = false" in out
        rho_rod = re.search(r"rho_rod = (\S+)", out).group(1)
        rho_fourier = re.search(r"rho_fourier = (\S+)", out).group(1)
        assert rho_rod == rho_fourier
        assert float(re.search(r"ratio = (\S+)", out).group(1)) == 1.0


    def test_overflowing_score_exits_2(self, ws, tmp_path, capsys, burgers_snapshot):
        # the benchmark scaled by 1e160 against the model of the unscaled data
        big = tmp_path / "big.csv"
        snap = burgers_snapshot
        io.write_snapshot_csv(big, rt.SnapshotMatrix(snap.values * 1e160, snap.x, snap.t))
        rc = main(["compare", "--input", str(big), "--model", str(ws / "model.txt")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        # the one error line, with no numpy overflow warnings before it
        assert captured.err.splitlines() == [
            "rodtwin compare: error: projection score rho_rod is not finite (nan)"
        ]


class TestReadsOfData:
    def test_walks_per_command(self, ws, tmp_path, monkeypatch, capsys):
        # the walks of walk.row_blocks, by the function that walks: the
        # finiteness scan of the data that SnapshotMatrix runs, the
        # report's or compare's pass, and for evaluate the blocked twin
        # and its scan.  So fit and sweep read V four times (with the
        # sketch's V0 M and Q^T V), evaluate and compare twice
        callers = []
        real = walk.row_blocks

        def counted(nx):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(nx)

        monkeypatch.setattr(walk, "row_blocks", counted)
        scan = "first_non_finite_row"
        data = ["--input", str(ws / "burgers.csv")]
        model = ["--model", str(tmp_path / "m.txt")]
        for argv, walks in (
            (["fit", "--output", str(tmp_path / "m.txt")], [scan, "data_pass"]),
            (
                ["evaluate", "--output", str(tmp_path / "twin")] + model,
                [scan, "form", scan, "data_pass"],
            ),
            (["compare"] + model, [scan, "data_pass"]),
            (["sweep", "--output", str(tmp_path / "s.csv")], [scan, "data_pass"]),
        ):
            callers.clear()
            assert main(argv + data) == 0
            assert callers == walks
        capsys.readouterr()


class TestSnapshotMemo:
    """generate's memo spares the later commands' parse and nothing else."""

    @pytest.mark.parametrize("grid", ["101", "2001"])
    def test_outputs_same_with_and_without_memo(self, tmp_path, capsys, monkeypatch, grid):
        data = tmp_path / "data.csv"
        assert main(["generate", "--grid-points", grid, "--output", str(data)]) == 0
        capsys.readouterr()
        hits = []
        real = io._memo_table

        def memo_table(path):
            table = real(path)
            hits.append(table is not None)
            return table

        monkeypatch.setattr(io, "_memo_table", memo_table)
        runs = {}
        for memo in (True, False):
            out = tmp_path / ("memo" if memo else "parsed")
            out.mkdir()
            hits.clear()
            printed = []
            for argv in (
                ["fit", "--output", str(out / "model.txt")],
                ["sweep", "--output", str(out / "sweep.csv")],
                ["evaluate", "--model", str(out / "model.txt"), "--output", str(out / "twin")],
                ["compare", "--model", str(out / "model.txt")],
            ):
                code = main(argv + ["--input", str(data)])
                printed.append((code,) + tuple(capsys.readouterr()))
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            assert len(files) == 5
            assert hits == [memo] * 4
            runs[memo] = printed, files
            if memo:
                os.remove(str(data) + ".npy")
        assert runs[True] == runs[False]

    def test_malformed_csv_with_stale_memo(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert main(["generate", "--grid-points", "31", "--output", str(data)]) == 0
        lines = data.read_text().splitlines()
        lines[5] = "oops," + lines[5].partition(",")[2]
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        printed = []
        for memo in (True, False):
            code = main(["fit", "--input", str(data), "--output", str(tmp_path / "m.txt")])
            printed.append((code,) + tuple(capsys.readouterr()))
            if memo:
                os.remove(str(data) + ".npy")
        assert printed[0] == printed[1]
        assert printed[0][0] == 2
        assert printed[0][2].startswith("rodtwin fit: error: %s:6: bad cell (" % data)


class TestBlasThreads:
    def test_evaluate_and_compare_bytes_at_one_and_two_threads(self, tmp_path):
        # 301 rows are three blocks of the pass; only the children's
        # thread variables are set
        data = tmp_path / "data.csv"
        assert main(["generate", "--grid-points", "301", "--output", str(data)]) == 0
        model = tmp_path / "m.txt"
        assert main(["fit", "--input", str(data), "--output", str(model), "--rank", "20"]) == 0
        outputs = {}
        for threads in ("1", "2"):
            env = _checkout_env()
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            out = tmp_path / threads
            out.mkdir()
            stdout = []
            for argv in (
                ["evaluate", "--output", str(out / "twin")],
                ["compare"],
            ):
                result = subprocess.run(
                    [sys.executable, "-m", "rodtwin.cli"]
                    + argv
                    + ["--input", str(data), "--model", str(model)],
                    capture_output=True,
                    timeout=120,
                    env=env,
                )
                assert result.returncode == 0, result.stderr
                stdout.append(result.stdout)
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            assert len(files) == 3
            outputs[threads] = stdout, files
        assert outputs["1"] == outputs["2"]


    def test_gram_deviation_bits_at_one_and_two_threads(self, tmp_path):
        # random 301x20 models with eight pairs; their complex Gram matrix
        # moved its last bits with the thread count on some of these seeds
        script = tmp_path / "gram.py"
        script.write_text(
            "import numpy as np\n"
            "import rodtwin as rt\n"
            "for seed in range(12):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    model = rt.RodModel(\n"
            "        left=rng.standard_normal((301, 20)),\n"
            "        right=rng.standard_normal((20, 11)),\n"
            "        eigenvalues=np.array([0.9 + 0.1j, 0.9 - 0.1j] * 8 + [0.5, 0.6, 0.7, 0.8]),\n"
            "        seed=0,\n"
            "        x=np.linspace(0.0, 1.0, 301),\n"
            "        t=np.linspace(0.0, 1.0, 11),\n"
            "    )\n"
            "    print(float(model.gram_deviation).hex())\n"
        )
        printed = {}
        for threads in ("1", "2"):
            env = _checkout_env()
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            result = subprocess.run(
                [sys.executable, str(script)], capture_output=True, timeout=120, env=env
            )
            assert result.returncode == 0, result.stderr
            printed[threads] = result.stdout
        assert len(printed["1"].split()) == 12
        assert printed["1"] == printed["2"]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_invalid_rank(self, ws, tmp_path, capsys):
        rc = main(
            [
                "fit",
                "--input",
                str(ws / "burgers.csv"),
                "--output",
                str(tmp_path / "m.txt"),
                "--rank",
                "0",
            ]
        )
        assert rc == 1
        assert "--rank" in capsys.readouterr().err

    def test_invalid_tol(self, ws, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--input",
                str(ws / "burgers.csv"),
                "--output",
                str(tmp_path / "s.csv"),
                "--tol",
                "-1",
            ]
        )
        assert rc == 1
        assert "--tol" in capsys.readouterr().err

    def test_bad_correlation_variant(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--correlation-variant", "pearson"])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "text, named",
        [
            ("grid_point = 31\n", "'grid_point'"),
            ("grid-points 31\n", ":1:"),
            ("grid-points = 31\ngrid-points = 21\n", ":2: repeated key 'grid-points'"),
            ("grid-points = 31\ngrid_points = 21\n", ":2: repeated key 'grid_points'"),
        ],
    )
    def test_bad_config_key_or_line(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text)
        out = tmp_path / "x.csv"
        rc = main(["generate", "--output", str(out), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cfg) in err
        assert named in err
        assert not out.exists()

    def test_bad_config_boolean(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("reorthonormalize = maybe\n")
        rc = main(
            [
                "fit",
                "--input",
                str(ws / "burgers.csv"),
                "--output",
                str(tmp_path / "m.txt"),
                "--config",
                str(cfg),
            ]
        )
        assert rc == 1
        assert "boolean" in capsys.readouterr().err

    def test_config_booleans_accepted(self, ws, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("reorthonormalize = yes\nself-test = off\n")
        argv = ["--input", str(ws / "burgers.csv")]
        flagged, configured = tmp_path / "flag.txt", tmp_path / "cfg.txt"
        rc = main(["fit"] + argv + ["--output", str(flagged), "--reorthonormalize"])
        assert rc == 0
        flag_stdout = capsys.readouterr().out
        rc = main(["fit"] + argv + ["--output", str(configured), "--config", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().out == flag_stdout
        assert configured.read_bytes() == flagged.read_bytes()
        assert configured.read_bytes() != (ws / "model.txt").read_bytes()
        # self-test = off scores the model's modes, which dominate
        argv += ["--model", str(ws / "model.txt"), "--config", str(cfg)]
        assert main(["compare"] + argv) == 0
        assert "dominates = true" in capsys.readouterr().out


def _rank_one_csv(path):
    x = np.linspace(0.0, 1.0, 40)
    values = np.column_stack([np.sin(np.pi * x) * 0.9**k for k in range(12)])
    io.write_snapshot_csv(path, rt.SnapshotMatrix(values, x, np.arange(12) * 0.1))


def _checkout_env():
    """Environment whose PYTHONPATH puts the tested checkout first."""
    pkg_parent = str(Path(rt.__file__).resolve().parents[1])
    pythonpath = filter(None, [pkg_parent, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))


class TestWarnings:
    def test_module_run_names_the_command(self, tmp_path):
        # under python -m every frame below main lies inside the package
        _rank_one_csv(tmp_path / "r1.csv")
        argv = ["fit", "--rank", "2", "--input", "r1.csv", "--output", "m.txt"]
        result = subprocess.run(
            [sys.executable, "-m", "rodtwin.cli"] + argv,
            capture_output=True,
            text=True,
            timeout=60,
            env=_checkout_env(),
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stderr.splitlines()
        assert lines == [
            "rodtwin fit: warning: rank-deficient QR: 1 negligible diagonal "
            "entries in R",
            "rodtwin fit: warning: truncating 1 near-zero singular directions "
            "before inversion",
        ]
        assert "rank = 1" in result.stdout

    def test_each_warning_printed_once(self, monkeypatch, capsys):
        def noisy(cfg):
            for _ in range(3):
                warnings.warn("same message", RuntimeWarning)
            warnings.warn("not a runtime warning", UserWarning)
            return 0

        _, help_text, flags = cli._COMMANDS["generate"]
        monkeypatch.setitem(cli._COMMANDS, "generate", (noisy, help_text, flags))
        with pytest.warns(UserWarning, match="not a runtime warning"):
            assert main(["generate"]) == 0
        assert capsys.readouterr().err == "rodtwin generate: warning: same message\n"


# What pip's generated console-script wrapper runs, plus a check that the
# child imports the same rodtwin checkout the suite is testing.
_WRAPPER = """\
import os
import sys

import rodtwin

here = os.path.realpath(rodtwin.__file__)
if not here.startswith({pkg_parent!r} + os.sep):
    sys.exit("rodtwin imported from %s, not under %s" % (here, {pkg_parent!r}))

from {module} import {attr}

sys.argv[0] = "rodtwin"
sys.exit({attr}())
"""


def _declared_console_script(name):
    """The entry point that pyproject.toml declares for script `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, "pyproject.toml declares no %r console script" % name
    return importlib.metadata.EntryPoint(
        name=name, value=scripts[name], group="console_scripts"
    )


def _assert_prints_help(cmd, env=None):
    result = subprocess.run(
        cmd + ["--help"], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, "exit %d: %s" % (result.returncode, result.stderr)
    assert "generate" in result.stdout
    assert "compare" in result.stdout


class TestConsoleScript:
    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; a fresh interpreter shows it
        pkg_parent = str(Path(rt.__file__).resolve().parents[1])
        code = (
            "import os, sys\n"
            "import rodtwin, rodtwin.cli\n"
            "here = os.path.realpath(rodtwin.__file__)\n"
            "assert here.startswith(%r + os.sep), here\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        ) % pkg_parent
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=_checkout_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_installed_entry_point(self):
        # The declared script, run as the installer's wrapper would run it,
        # against the checkout under test: this needs no install.
        ep = _declared_console_script("rodtwin")
        pkg_parent = str(Path(rt.__file__).resolve().parents[1])
        wrapper = _WRAPPER.format(
            pkg_parent=pkg_parent, module=ep.module, attr=ep.attr
        )
        _assert_prints_help([sys.executable, "-c", wrapper], env=_checkout_env())

        # An installed script, where there is one, must behave the same.
        exe = shutil.which("rodtwin")
        if exe:
            _assert_prints_help([exe])
