import json
from dataclasses import asdict, replace

import numpy as np
import pytest

import mvfuzzy.cli as cli
from conftest import failing_solve, solve_calls
from mvfuzzy import (embed, evaluate_embedding, export_rules, fit,
                     load_dataset, load_model, rules_predict, solver)
from mvfuzzy.solver import (B_UPDATE_MODES, VARIANTS, Hyperparams,
                            NumericFailure)


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

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_bad_noise_is_config_error(self, tmp_path, noise):
        out = tmp_path / "data"
        rc = cli.main(["synth", "--out", str(out), "--n", "20",
                       "--noise", noise])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error"
        assert err["message"].startswith("noise must be a finite real")
        assert not (out / "view_0.csv").exists()


    def test_negative_seed_is_config_error(self, tmp_path):
        out = tmp_path / "data"
        rc = cli.main(["synth", "--out", str(out), "--n", "20",
                       "--seed", "-1"])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error"
        assert err["message"].startswith("seed must be an integer >= 0")
        assert not (out / "view_0.csv").exists()


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

    def test_collapsed_fit_says_so(self, synth_dir, tmp_path, capsys):
        # On these data the no-consistency fit ends all-zero.
        args = ["fit", *data_args(synth_dir), "--iters", "20"]
        line = "every common consequent ended exactly 0"
        assert cli.main([*args, "--out", str(tmp_path / "full")]) == 0
        assert line not in capsys.readouterr().out
        assert cli.main([*args, "--out", str(tmp_path / "nc"),
                         "--variant", "no-consistency"]) == 0
        assert capsys.readouterr().out.count(line) == 1


def subcommand_options(command):
    """The option strings of one subcommand, each with its argparse
    action."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return {opt: action for action in sub.choices[command]._actions
            for opt in action.option_strings}


@pytest.mark.parametrize("command", ["fit", "grid", "ablate"])
class TestModelFlags:
    def test_choices_are_the_library_values(self, command):
        options = subcommand_options(command)
        assert list(options["--b-mode"].choices) == list(B_UPDATE_MODES)
        assert list(options["--variant"].choices) == [
            v.replace("_", "-") for v in VARIANTS]

    def test_every_model_flag_reaches_its_field(self, command):
        args = cli.build_parser().parse_args([
            command, "--views", "v.csv", "--out", "o", "--seed", "9",
            "--iters", "17", "--rules", "4", "--dim", "2", "--alpha", "0.5",
            "--beta", "0.25", "--gamma", "2", "--delta", "3", "--knn", "7",
            "--bandwidth", "1.5", "--tol", "0.001", "--b-mode", "exact",
            "--variant", "no-consistency"])
        hp, _ = cli.resolve_hyperparams(args)
        assert hp == Hyperparams(
            seed=9, max_iter=17, n_rules=4, embed_dim=2, alpha=0.5,
            beta=0.25, gamma=2.0, delta=3.0, n_neighbors=7, bandwidth=1.5,
            tol_stop=1e-3, b_update="exact", variant="no_consistency")
        # Every field but eps_irls, which has no flag, moved off its default.
        default = Hyperparams()
        assert [name for name in Hyperparams.__dataclass_fields__
                if getattr(hp, name) == getattr(default, name)] == ["eps_irls"]


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
        state = load_model(run / "model.json")
        assert doc == export_rules(state)
        dataset = load_dataset([synth_dir / "view_0.csv",
                                synth_dir / "view_1.csv"])
        replay = rules_predict(doc, dataset.views).data
        direct = embed(dataset, state).data
        assert np.abs(replay - direct).max() <= 1e-10

    def test_malformed_model_is_config_error(self, synth_dir, tmp_path):
        run = tmp_path / "run"
        cli.main(["fit", *data_args(synth_dir), "--out", str(run),
                  "--iters", "2"])
        model = json.loads((run / "model.json").read_text())
        model["hyperparams"]["foo"] = 1
        (run / "model.json").write_text(json.dumps(model))
        out = tmp_path / "rules"
        rc = cli.main(["export-rules", "--model", str(run / "model.json"),
                       "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error" and "foo" in err["message"]
        assert not (out / "rules.txt").exists()

    @pytest.mark.parametrize("command", ["export-rules", "evaluate"])
    @pytest.mark.parametrize("views, words", [
        ([[1], [2]], "'views'"), (5, "'views'"), (None, "'views'"),
        ("missing", "no 'views' field"),
        ("p_common_1x1", "view 0 field 'p_common'"),
        ("zero_width", "view 0 field 'p_common' has no columns"),
        ("centers_short", "view 1 field 'centers'")])
    def test_malformed_views_are_config_errors(self, synth_dir, tmp_path,
                                               capsys, command, views,
                                               words):
        run = tmp_path / "run"
        cli.main(["fit", *data_args(synth_dir), "--out", str(run),
                  "--iters", "2"])
        model = json.loads((run / "model.json").read_text())
        if views == "missing":
            del model["views"]
        elif views == "p_common_1x1":
            model["views"][0]["p_common"] = [[1.0]]
        elif views == "zero_width":
            for vd in model["views"]:
                for key in ("p_common", "p_specific"):
                    vd[key] = [[] for _ in vd[key]]
        elif views == "centers_short":
            del model["views"][1]["centers"][0]
        else:
            model["views"] = views
        (run / "model.json").write_text(json.dumps(model))
        out = tmp_path / "o"
        extra = data_args(synth_dir) if command == "evaluate" else []
        capsys.readouterr()
        rc = cli.main([command, "--model", str(run / "model.json"), *extra,
                       "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error" and words in err["message"]
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "evaluate", "export-rules"])
def test_reruns_into_two_directories_are_byte_identical(synth_dir, tmp_path,
                                                        command):
    # The manifests name files relative to their directory and the model
    # by its hash, so neither the output nor the model's path shows.
    run = tmp_path / "run"
    cli.main(["fit", *data_args(synth_dir), "--out", str(run),
              "--iters", "2"])
    models = [tmp_path / "a" / "model.json", tmp_path / "b" / "c" / "m.json"]
    outs = [tmp_path / "out_one", tmp_path / "out" / "two"]
    for model, out in zip(models, outs):
        model.parent.mkdir(parents=True)
        model.write_bytes((run / "model.json").read_bytes())
        args = {"synth": ["--n", "40", "--seed", "3"],
                "evaluate": ["--model", str(model), *data_args(synth_dir),
                             "--repeats", "2", "--restarts", "2"],
                "export-rules": ["--model", str(model)]}[command]
        assert cli.main([command, *args, "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "run_manifest.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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

    @pytest.mark.parametrize("grid, words", [
        ([1, 2], "\"grid\" must be an object"),
        ({"alpha": 5}, "grid for alpha must be a non-empty list"),
        ({"alpha": [None]}, "grid for alpha: alpha, beta, gamma, delta")])
    def test_malformed_config_grid_is_config_error(self, synth_dir, tmp_path,
                                                   capsys, grid, words):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": grid}))
        out = tmp_path / "g"
        rc = cli.main(["grid", *data_args(synth_dir), "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error" and words in err["message"]
        assert "Traceback" not in capsys.readouterr().err

    def test_config_grid_sweeps_an_integer_field(self, synth_dir, tmp_path):
        # Grid values reach Hyperparams as given: n_rules stays an integer,
        # and an integer alpha prints as one, as the base config does.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n_rules": [2, 3], "alpha": [2]},
                                   "max_iter": 2}))
        out = tmp_path / "g"
        rc = cli.main(["grid", *data_args(synth_dir), "--config", str(cfg),
                       "--out", str(out), "--repeats", "2"])
        assert rc == 0
        rows = [line.split(",") for line in
                (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [(r[1], r[5]) for r in rows] == [("2", "2"), ("2", "3")]

    def test_unknown_config_grid_name_is_config_error(self, synth_dir,
                                                      tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"foo": [1, 2]}}))
        out = tmp_path / "g"
        rc = cli.main(["grid", *data_args(synth_dir), "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error" and "foo" in err["message"]


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


# The metric names and printed labels, in report order, spelled out here
# so that the writers' output is pinned independently of the library.
PINNED_METRICS = [("nmi", "NMI"), ("acc", "ACC"), ("purity", "Purity")]
# Flags under which the 120-instance data cluster imperfectly without the
# consistency map: the three metrics differ, their stds are not zero, and
# the grid's best point differs between metrics.
PINNED_FLAGS = ["--seed", "3", "--iters", "3", "--rules", "2", "--dim", "1"]
PINNED_HP = Hyperparams(seed=3, max_iter=3, n_rules=2, embed_dim=1)
PINNED_PROTOCOL = ["--repeats", "4", "--restarts", "1"]


def pinned_stats(report):
    """(mean, std, runs) per pinned metric, from the report's runs."""
    doc = report.to_dict()
    stats = []
    for name, _ in PINNED_METRICS:
        runs = np.asarray(doc[name]["runs"])
        stats.append((float(runs.mean()), float(runs.std()), runs.tolist()))
    return stats


def pinned_cells(report):
    return [repr(value) for mean, std, _ in pinned_stats(report)
            for value in (mean, std)]


class TestMetricWriters:
    """Every metric writer's text, rebuilt from in-process reports of the
    same fits, embeddings and seeds as the commands'."""

    def rebuild(self, synth_dir, hp, seed):
        dataset = load_dataset([synth_dir / "view_0.csv",
                                synth_dir / "view_1.csv"],
                               synth_dir / "labels.csv")
        state, _ = fit(dataset, hp)
        return evaluate_embedding(embed(dataset, state).data, dataset.labels,
                                  repeats=4, restarts=1, seed=seed)

    def test_evaluate_report_and_stdout(self, synth_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert cli.main(["fit", *data_args(synth_dir), "--out", str(run),
                         *PINNED_FLAGS, "--variant", "no-consistency"]) == 0
        out = tmp_path / "eval"
        capsys.readouterr()
        assert cli.main(["evaluate", "--model", str(run / "model.json"),
                         *data_args(synth_dir), "--out", str(out),
                         "--seed", "5", *PINNED_PROTOCOL]) == 0
        report = self.rebuild(
            synth_dir, replace(PINNED_HP, variant="no_consistency"), 5)
        stats = pinned_stats(report)
        doc = {name: {"mean": mean, "std": std, "runs": runs}
               for (name, _), (mean, std, runs) in zip(PINNED_METRICS, stats)}
        doc["best_assignment"] = report.best_assignment.tolist()
        assert (out / "report.json").read_text() == (
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert capsys.readouterr().out == "evaluate: " + "  ".join(
            f"{label} {mean:.4f}±{std:.4f}"
            for (_, label), (mean, std, _) in zip(PINNED_METRICS, stats)
        ) + "\n"

    def test_grid_sweep_and_report(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"alpha": [0.5, 2.0]},
                                   "variant": "no_consistency"}))
        out = tmp_path / "grid"
        capsys.readouterr()
        assert cli.main(["grid", *data_args(synth_dir), "--config", str(cfg),
                         "--out", str(out), *PINNED_FLAGS,
                         *PINNED_PROTOCOL]) == 0
        assert capsys.readouterr().out == "grid: 2 points swept over alpha\n"
        base = replace(PINNED_HP, variant="no_consistency")
        points = [replace(base, alpha=alpha) for alpha in (0.5, 2.0)]
        seeds = np.random.SeedSequence(3).spawn(2)
        reports = [self.rebuild(synth_dir, hp, ss)
                   for hp, ss in zip(points, seeds)]
        header = ("index,alpha,beta,gamma,delta,n_rules,embed_dim,"
                  "nmi_mean,nmi_std,acc_mean,acc_std,purity_mean,"
                  "purity_std,error\n")
        rows = [",".join([str(i), repr(hp.alpha), repr(hp.beta),
                          repr(hp.gamma), repr(hp.delta), str(hp.n_rules),
                          str(hp.embed_dim), *pinned_cells(r), ""]) + "\n"
                for i, (hp, r) in enumerate(zip(points, reports))]
        assert (out / "sweep.csv").read_text() == header + "".join(rows)
        best = {}
        for k, (name, _) in enumerate(PINNED_METRICS):
            means = [pinned_stats(r)[k][0] for r in reports]
            idx = means.index(max(means))
            best[name] = {"index": idx, "hyperparams": asdict(points[idx]),
                          "mean": means[idx],
                          "std": pinned_stats(reports[idx])[k][1]}
        doc = {"swept": ["alpha"], "n_points": 2, "best": best}
        assert (out / "grid_report.json").read_text() == (
            json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def test_ablate_files_and_stdout(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "ablate"
        capsys.readouterr()
        assert cli.main(["ablate", *data_args(synth_dir), "--out", str(out),
                         *PINNED_FLAGS, *PINNED_PROTOCOL]) == 0
        reports = {variant: self.rebuild(
            synth_dir, replace(PINNED_HP, variant=variant), 3)
            for variant in VARIANTS}
        assert (out / "ablation.csv").read_text() == (
            "variant,nmi_mean,nmi_std,acc_mean,acc_std,purity_mean,"
            "purity_std\n" + "".join(
                ",".join([variant, *pinned_cells(r)]) + "\n"
                for variant, r in reports.items()))
        # The header keeps the last column's pad; rows have no trailing
        # blanks.
        lines = (out / "ablation.txt").read_text().split("\n")
        assert lines[0] == ("variant         NMI               ACC"
                            "               Purity            ")
        assert lines[1:] == [
            f"{variant:<16}" + "   ".join(
                f"{mean:.4f} ± {std:.4f}"
                for mean, std, _ in pinned_stats(r))
            for variant, r in reports.items()] + [""]
        assert capsys.readouterr().out == "".join(
            f"{variant}: " + "  ".join(
                f"{label} {mean:.4f}" for (_, label), (mean, _, _)
                in zip(PINNED_METRICS, pinned_stats(r))) + "\n"
            for variant, r in reports.items())


class TestErrorPaths:
    def test_missing_view_file(self, tmp_path):
        rc = cli.main(["fit", "--views", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "out"), "--dim", "2"])
        assert rc == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "config_error"

    @pytest.mark.parametrize("flag, words", [
        (["--clusters", "0"], "n_clusters"),
        (["--clusters", "-1"], "n_clusters"),
        (["--dims", "0,3"], "integer dimension >= 1")])
    def test_empty_synth_shape_is_config_error(self, tmp_path, flag, words):
        out = tmp_path / "out"
        rc = cli.main(["synth", "--out", str(out), "--n", "20", *flag])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error"
        assert words in err["message"]
        assert not (out / "view_0.csv").exists()

    def test_bad_config_json(self, synth_dir, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        rc = cli.main(["fit", *data_args(synth_dir), "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_misspelt_config_key_is_config_error(self, synth_dir, tmp_path):
        # "gama" is not gamma and "iters" is a flag, not a config key: a
        # fit that ignored them would run at gamma = 1 for 100 iterations.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gama": 5, "iters": 3}))
        out = tmp_path / "o"
        rc = cli.main(["fit", *data_args(synth_dir), "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config_error" and "gama" in err["message"]
        assert not (out / "trace.csv").exists()

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

    def test_numeric_failure_in_a_fit_names_iteration_and_view(
            self, synth_dir, tmp_path, monkeypatch):
        argv = ["fit", *data_args(synth_dir), "--iters", "6", "--tol", "0",
                "--seed", "3", "--out"]
        calls = solve_calls(
            lambda: cli.main([*argv, str(tmp_path / "clean")]))
        monkeypatch.setattr(solver, "solve_reg",
                            failing_solve(calls.index((4, 1)) + 1))
        out = tmp_path / "out"
        assert cli.main([*argv, str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "numeric_failure"
        assert (err["iteration"], err["view"]) == (4, 1)

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
