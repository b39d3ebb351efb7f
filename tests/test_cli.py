import json

import pytest

import mvfuzzy.cli as cli
from mvfuzzy.solver import NumericFailure


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = cli.main(["synth", "--out", str(out), "--n", "120",
                   "--num-views", "2", "--clusters", "3",
                   "--noise", "0.1", "--seed", "11"])
    assert rc == 0
    return out


def data_args(synth_dir):
    return ["--views", str(synth_dir / "view_0.csv"),
            str(synth_dir / "view_1.csv"),
            "--labels", str(synth_dir / "labels.csv")]


class TestSynth:
    def test_files_and_manifest(self, synth_dir):
        assert (synth_dir / "view_0.csv").exists()
        assert (synth_dir / "view_1.csv").exists()
        assert (synth_dir / "labels.csv").exists()
        manifest = json.loads((synth_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 11
        assert len(manifest["artifacts"]) == 3

    def test_label_file_has_all_clusters(self, synth_dir):
        labels = (synth_dir / "labels.csv").read_text().split()
        assert len(set(labels)) == 3


class TestFit:
    def test_fit_writes_artifacts(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(["fit", *data_args(synth_dir), "--out", str(out),
                       "--seed", "3", "--iters", "20"])
        assert rc == 0
        assert (out / "model.json").exists()
        trace_lines = (out / "trace.csv").read_text().splitlines()
        header = trace_lines[0].split(",")
        assert header[:2] == ["iteration", "total"]
        assert len(header) == 9
        assert len(trace_lines) == 22  # header + init + 20 iterations
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"model.json", "trace.csv"}

    def test_trace_terms_sum_to_total(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        cli.main(["fit", *data_args(synth_dir), "--out", str(out),
                  "--seed", "3", "--iters", "10"])
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = [float(c) for c in row.split(",")[1:]]
            total, terms = cells[0], cells[1:]
            assert abs(total - sum(terms)) <= 1e-8 * max(1.0, abs(total))

    def test_zero_iterations_single_row(self, synth_dir, tmp_path):
        out = tmp_path / "run0"
        rc = cli.main(["fit", *data_args(synth_dir), "--out", str(out),
                       "--iters", "0"])
        assert rc == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 2

    def test_config_file_with_flag_override(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "max_iter": 5,
                                   "seed": 9}))
        out = tmp_path / "run_cfg"
        rc = cli.main(["fit", *data_args(synth_dir), "--config", str(cfg),
                       "--out", str(out), "--alpha", "3.5"])
        assert rc == 0
        model = json.loads((out / "model.json").read_text())
        assert model["hyperparams"]["alpha"] == 3.5  # flag wins
        assert model["hyperparams"]["max_iter"] == 5  # config wins
        assert model["hyperparams"]["seed"] == 9

    def test_variant_and_mode_flags(self, synth_dir, tmp_path):
        out = tmp_path / "run_v"
        rc = cli.main(["fit", *data_args(synth_dir), "--out", str(out),
                       "--iters", "4", "--variant", "no-consistency",
                       "--b-mode", "exact"])
        assert rc == 0
        model = json.loads((out / "model.json").read_text())
        assert model["hyperparams"]["variant"] == "no_consistency"
        assert model["hyperparams"]["b_update"] == "exact"


class TestEvaluate:
    def test_fit_then_evaluate_quality(self, synth_dir, tmp_path):
        run = tmp_path / "run"
        cli.main(["fit", *data_args(synth_dir), "--out", str(run),
                  "--seed", "3"])
        out = tmp_path / "eval"
        rc = cli.main(["evaluate", "--model", str(run / "model.json"),
                       *data_args(synth_dir), "--out", str(out),
                       "--repeats", "5"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["nmi"]["mean"] >= 0.9
        assert len(report["nmi"]["runs"]) == 5
        assert len(report["best_assignment"]) == 120

    def test_missing_labels_is_config_error(self, synth_dir, tmp_path):
        run = tmp_path / "run"
        cli.main(["fit", *data_args(synth_dir), "--out", str(run),
                  "--iters", "2"])
        rc = cli.main(["evaluate", "--model", str(run / "model.json"),
                       "--views", str(synth_dir / "view_0.csv"),
                       str(synth_dir / "view_1.csv"),
                       "--out", str(tmp_path / "eval")])
        assert rc == 2


class TestExportRules:
    def test_rules_files(self, synth_dir, tmp_path):
        run = tmp_path / "run"
        cli.main(["fit", *data_args(synth_dir), "--out", str(run),
                  "--iters", "10"])
        out = tmp_path / "rules"
        rc = cli.main(["export-rules", "--model", str(run / "model.json"),
                       "--out", str(out)])
        assert rc == 0
        text = (out / "rules.txt").read_text()
        assert "Rule 1:" in text and "th feature is" in text
        doc = json.loads((out / "rules.json").read_text())
        assert doc["n_rules"] == 3
        assert len(doc["views"]) == 2


class TestGrid:
    def test_sweep_over_alpha(self, synth_dir, tmp_path):
        out = tmp_path / "grid"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"alpha": [0.5, 2.0]},
                                   "max_iter": 6}))
        rc = cli.main(["grid", *data_args(synth_dir), "--config", str(cfg),
                       "--out", str(out), "--repeats", "3"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 points
        report = json.loads((out / "grid_report.json").read_text())
        assert set(report["best"]) == {"nmi", "acc", "purity"}

    def test_named_sweep_uses_default_range(self, synth_dir, tmp_path):
        out = tmp_path / "grid2"
        rc = cli.main(["grid", *data_args(synth_dir), "--out", str(out),
                       "--grid", "alpha", "--iters", "2", "--repeats", "2"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 12  # header + 11 grid values

    def test_missing_grid_is_config_error(self, synth_dir, tmp_path):
        rc = cli.main(["grid", *data_args(synth_dir),
                       "--out", str(tmp_path / "g")])
        assert rc == 2


class TestAblate:
    def test_three_variants_with_wiring(self, synth_dir, tmp_path):
        out = tmp_path / "ablate"
        rc = cli.main(["ablate", *data_args(synth_dir), "--out", str(out),
                       "--iters", "8", "--repeats", "3"])
        assert rc == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert len(rows) == 4
        assert rows[1].startswith("full,")
        # no_consistency trace must have an all-zero consistency column.
        trace = (out / "trace_no_consistency.csv").read_text().splitlines()
        idx = trace[0].split(",").index("consistency")
        values = {float(r.split(",")[idx]) for r in trace[1:]}
        assert values == {0.0}
        idx_b = trace[0].split(",").index("b_sparsity")
        assert {float(r.split(",")[idx_b]) for r in trace[1:]} == {0.0}
        trace_c = (out / "trace_common_only.csv").read_text().splitlines()
        idx_o = trace_c[0].split(",").index("orthogonality")
        assert {float(r.split(",")[idx_o]) for r in trace_c[1:]} == {0.0}

    def test_variants_share_one_preparation(self, synth_dir, tmp_path,
                                            monkeypatch):
        calls = []
        real = cli.prepare_inputs

        def counting(dataset, hp):
            calls.append(hp.variant)
            return real(dataset, hp)

        monkeypatch.setattr(cli, "prepare_inputs", counting)
        rc = cli.main(["ablate", *data_args(synth_dir),
                       "--out", str(tmp_path / "a"), "--iters", "2",
                       "--repeats", "1"])
        assert rc == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("flag", [["--repeats", "0"],
                                      ["--restarts", "0"]])
    def test_protocol_checked_before_preparing(self, synth_dir, tmp_path,
                                               monkeypatch, flag):
        def no_prepare(*args, **kwargs):
            raise AssertionError("prepared before the protocol check")

        monkeypatch.setattr(cli, "prepare_inputs", no_prepare)
        out = tmp_path / "a"
        rc = cli.main(["ablate", *data_args(synth_dir), "--out", str(out),
                       *flag])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error"
        assert flag[0][2:] in err["message"]

    def test_constant_view_is_config_error(self, synth_dir, tmp_path):
        rows = len((synth_dir / "view_1.csv").read_text().splitlines())
        constant = tmp_path / "constant.csv"
        constant.write_text("1.0,2.0\n" * rows)
        out = tmp_path / "a"
        rc = cli.main(["ablate", "--views", str(synth_dir / "view_0.csv"),
                       str(constant), "--labels",
                       str(synth_dir / "labels.csv"), "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["message"].startswith("view 1:")


class TestErrorPaths:
    def test_missing_view_file(self, tmp_path):
        rc = cli.main(["fit", "--views", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "out"), "--dim", "2"])
        assert rc == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "config_error"

    def test_bad_config_json(self, synth_dir, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        rc = cli.main(["fit", *data_args(synth_dir), "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_numeric_failure_exit_code(self, synth_dir, tmp_path,
                                       monkeypatch):
        def boom(*args, **kwargs):
            raise NumericFailure("singular", view=1, iteration=4)

        monkeypatch.setattr(cli, "fit", boom)
        out = tmp_path / "out"
        rc = cli.main(["fit", *data_args(synth_dir), "--out", str(out)])
        assert rc == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "numeric_failure"
        assert err["view"] == 1 and err["iteration"] == 4

    def test_bandwidth_accepts_number(self, synth_dir, tmp_path):
        rc = cli.main(["fit", *data_args(synth_dir),
                       "--out", str(tmp_path / "o"), "--iters", "2",
                       "--bandwidth", "2.5"])
        assert rc == 0

    @pytest.mark.parametrize("bad", [True, [1.0], "fast"])
    def test_malformed_config_bandwidth_is_config_error(self, synth_dir,
                                                        tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bandwidth": bad, "max_iter": 2}))
        out = tmp_path / "o"
        rc = cli.main(["fit", *data_args(synth_dir), "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error"
        assert "bandwidth" in err["message"]

    @pytest.mark.parametrize("flag", [["--alpha", "nan"],
                                      ["--bandwidth", "nan"],
                                      ["--delta", "inf"]])
    def test_non_finite_hyperparameter_is_config_error(self, synth_dir,
                                                       tmp_path, flag):
        out = tmp_path / "o"
        rc = cli.main(["fit", *data_args(synth_dir), "--out", str(out),
                       "--iters", "2", *flag])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error"
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_is_config_error(self, synth_dir, tmp_path,
                                               repeats):
        run = tmp_path / "run"
        assert cli.main(["fit", *data_args(synth_dir), "--out", str(run),
                         "--iters", "2"]) == 0
        out = tmp_path / "eval"
        rc = cli.main(["evaluate", "--model", str(run / "model.json"),
                       *data_args(synth_dir), "--out", str(out),
                       "--repeats", repeats])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error" and "repeats" in err["message"]
        rc = cli.main(["grid", *data_args(synth_dir), "--out",
                       str(tmp_path / "grid"), "--grid", "alpha",
                       "--repeats", repeats])
        assert rc == 2

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    def test_restarts_below_one_is_config_error(self, synth_dir, tmp_path,
                                                restarts):
        run = tmp_path / "run"
        assert cli.main(["fit", *data_args(synth_dir), "--out", str(run),
                         "--iters", "2"]) == 0
        out = tmp_path / "eval"
        rc = cli.main(["evaluate", "--model", str(run / "model.json"),
                       *data_args(synth_dir), "--out", str(out),
                       "--restarts", restarts])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error"
        assert "restarts must be >= 1" in err["message"]
        assert not (out / "run_manifest.json").exists()
        for command, extra in (("grid", ["--grid", "alpha"]),
                               ("ablate", [])):
            rc = cli.main([command, *data_args(synth_dir), "--out",
                           str(tmp_path / command), *extra,
                           "--restarts", restarts])
            assert rc == 2

    def test_bad_bandwidth_rejected(self, synth_dir, tmp_path):
        rc = cli.main(["fit", *data_args(synth_dir),
                       "--out", str(tmp_path / "o"), "--iters", "2",
                       "--bandwidth", "wide"])
        assert rc == 2

    # Written as raw JSON text: Python's json reads NaN as a float NaN and
    # 1e400 as inf. At eps_irls = inf every IRLS weight is 0, at 0 the
    # weights divide by zero, and a NaN tol_stop silently turns early
    # stopping off.
    @pytest.mark.parametrize("config", [
        '{"max_iter": 2.5}', '{"n_rules": 2.5}', '{"embed_dim": 2.0}',
        '{"n_neighbors": 2.5}', '{"eps_irls": "nan"}', '{"eps_irls": NaN}',
        '{"eps_irls": 1e400}', '{"eps_irls": 0}', '{"tol_stop": NaN}',
        '{"seed": 2.5}'])
    def test_malformed_run_control_is_config_error(self, synth_dir,
                                                   tmp_path, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(config)
        out = tmp_path / "o"
        rc = cli.main(["fit", *data_args(synth_dir), "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error"
        assert json.loads(config).popitem()[0] in err["message"]
        assert not (out / "trace.csv").exists()
