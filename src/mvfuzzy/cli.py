"""Batch command-line front end.

Subcommands: synth, fit, evaluate, export-rules, grid, ablate. Every run
writes its artifacts plus a manifest with the fully resolved config and
content hashes, so runs are reproducible byte for byte from the manifest.
Exit codes: 0 success, 2 config/parse error, 3 numeric failure.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .data import (DataError, load_dataset, make_synthetic, save_dataset)
from .evaluation import check_protocol, evaluate_embedding, grid_search
from .model_io import load_model, save_model
from .representation import embed, export_rules, rules_to_dict, rules_to_text
from .solver import Hyperparams, NumericFailure, fit, prepare_inputs

DEFAULT_SWEEP_RANGE = [float(2.0 ** e) for e in range(-5, 6)]

# (cli flag dest, Hyperparams field)
_HP_FLAGS = [
    ("alpha", "alpha"), ("beta", "beta"), ("gamma", "gamma"),
    ("delta", "delta"), ("rules", "n_rules"), ("dim", "embed_dim"),
    ("iters", "max_iter"), ("knn", "n_neighbors"),
    ("bandwidth", "bandwidth"), ("tol", "tol_stop"), ("seed", "seed"),
    ("b_mode", "b_update"), ("variant", "variant"),
]

_FLAG_VALUE_MAP = {
    "variant": {"full": "full", "common-only": "common_only",
                "no-consistency": "no_consistency"},
}


def _add_data_args(p, views_required=True):
    p.add_argument("--views", nargs="+", required=views_required,
                   help="per-view CSV files (rows = instances)")
    p.add_argument("--labels", help="single-column CSV of class labels")
    p.add_argument("--header", action="store_true",
                   help="skip one header row in every CSV")


def _add_model_args(p):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--seed", type=int)
    p.add_argument("--iters", type=int, help="maximum iterations")
    p.add_argument("--rules", type=int, help="number of fuzzy rules")
    p.add_argument("--dim", type=int,
                   help="embedding dimension per block (default: #classes)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--knn", type=int, help="neighbors for the graphs")
    p.add_argument("--bandwidth",
                   help="kernel bandwidth ('auto' or a positive number)")
    p.add_argument("--tol", type=float, help="early-stop tolerance")
    p.add_argument("--b-mode", dest="b_mode", choices=["paper", "exact"])
    p.add_argument("--variant",
                   choices=["full", "common-only", "no-consistency"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvfuzzy",
        description="multi-view fuzzy representation learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic blob dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--num-views", dest="num_views", type=int, default=2)
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--dims", help="comma-separated feature count per view")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a model and write trace + model")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate",
                       help="cluster an embedding and score it")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--restarts", type=int, default=10)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-rules",
                       help="write the fitted rule bases as text + JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_rules)

    p = sub.add_parser("grid", help="grid search over hyperparameters")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--grid",
                   help="comma-separated params to sweep over the 2^-5..2^5 "
                        "range (e.g. 'alpha,beta'); explicit value lists "
                        "go in the config file under \"grid\"")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--refit", action="store_true",
                   help="redraw the model initialization every repeat")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ablate",
                       help="compare full/common-only/no-consistency")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--restarts", type=int, default=10)
    p.set_defaults(func=cmd_ablate)

    return parser


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DataError(f"config {path} must be a JSON object")
    return doc


def _parse_bandwidth(value):
    """A flag's or config's string as 'auto' or a float; any other config
    value goes to `Hyperparams` as it is, which rejects a bool."""
    if value is None or value == "auto":
        return "auto"
    if not isinstance(value, str):
        return value
    try:
        return float(value)
    except ValueError:
        raise DataError(f"bandwidth must be 'auto' or a number: {value!r}")


def resolve_hyperparams(args):
    """Defaults < config file < explicit CLI flags."""
    config = _load_config(getattr(args, "config", None))
    fields = {f for f in Hyperparams.__dataclass_fields__}
    values = {k: v for k, v in config.items() if k in fields}
    for flag, field in _HP_FLAGS:
        flag_value = getattr(args, flag, None)
        if flag_value is not None:
            mapping = _FLAG_VALUE_MAP.get(field)
            values[field] = mapping[flag_value] if mapping else flag_value
    if "bandwidth" in values:
        values["bandwidth"] = _parse_bandwidth(values["bandwidth"])
    try:
        return Hyperparams(**values), config
    except TypeError as err:
        raise DataError(f"bad hyperparameter config: {err}") from None


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return "sha256:" + digest.hexdigest()


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, command, config, seed, artifacts):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifacts": {Path(a).name: _sha256(a) for a in artifacts},
    }
    path = Path(out_dir) / "run_manifest.json"
    _write_json(manifest, path)
    return path


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cli_dataset(args, labels_required=False):
    if labels_required and args.labels is None:
        raise DataError("this command requires --labels")
    return load_dataset(args.views, args.labels, header=args.header)


def cmd_synth(args):
    out = _out_dir(args)
    dims = None
    if args.dims:
        dims = [int(tok) for tok in args.dims.split(",")]
    dataset = make_synthetic(
        n_instances=args.n, n_views=args.num_views,
        n_clusters=args.clusters, noise=args.noise, seed=args.seed,
        dims=dims)
    manifest = save_dataset(dataset, out, seed=args.seed)
    files = list(manifest["views"])
    if manifest["labels"]:
        files.append(manifest["labels"])
    _write_manifest(out, "synth", {
        "n": args.n, "num_views": args.num_views,
        "clusters": args.clusters, "noise": args.noise,
        "dims": dims,
    }, args.seed, files)
    print(f"wrote {len(files)} data files to {out}")
    return 0


def cmd_fit(args):
    out = _out_dir(args)
    hp, _ = resolve_hyperparams(args)
    dataset = _load_cli_dataset(args)
    print(f"loaded {dataset.n_instances} instances, "
          f"{dataset.n_views} views, dims {dataset.view_dims}")
    state, trace = fit(dataset, hp)
    model_path = out / "model.json"
    trace_path = out / "trace.csv"
    save_model(state, model_path)
    trace.write_csv(trace_path)
    _write_manifest(out, "fit", asdict(state.hp), state.hp.seed,
                    [model_path, trace_path])
    final = trace.entries[-1]
    print(f"fit: {len(trace.entries) - 1} iterations, "
          f"objective {final.total:.6g}")
    return 0


def cmd_evaluate(args):
    out = _out_dir(args)
    state = load_model(args.model)
    dataset = _load_cli_dataset(args, labels_required=True)
    z = embed(dataset, state)
    report = evaluate_embedding(
        z.data, dataset.labels, repeats=args.repeats,
        restarts=args.restarts, seed=args.seed)
    report_path = out / "report.json"
    _write_json(report.to_dict(), report_path)
    _write_manifest(out, "evaluate", {
        "model": str(args.model), "repeats": args.repeats,
        "restarts": args.restarts,
    }, args.seed, [report_path])
    print(f"evaluate: NMI {report.nmi:.4f}±{report.nmi_std:.4f}  "
          f"ACC {report.acc:.4f}±{report.acc_std:.4f}  "
          f"Purity {report.purity:.4f}±{report.purity_std:.4f}")
    return 0


def cmd_export_rules(args):
    out = _out_dir(args)
    state = load_model(args.model)
    export = export_rules(state)
    text_path = out / "rules.txt"
    json_path = out / "rules.json"
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(rules_to_text(export))
    _write_json(rules_to_dict(export), json_path)
    _write_manifest(out, "export-rules", {"model": str(args.model)}, None,
                    [text_path, json_path])
    print(f"wrote rule bases for {len(export.views)} view(s) to {out}")
    return 0


def _build_grid(args, config, base_hp):
    sweep = dict(config.get("grid", {}))
    if args.grid:
        for name in args.grid.split(","):
            name = name.strip()
            if name not in ("alpha", "beta", "gamma", "delta"):
                raise DataError(f"cannot sweep unknown parameter: {name}")
            sweep.setdefault(name, DEFAULT_SWEEP_RANGE)
    if not sweep:
        raise DataError(
            "no grid given: pass --grid or a \"grid\" object in the config")
    names = sorted(sweep)
    points = [base_hp]
    for name in names:
        values = sweep[name]
        if not values:
            raise DataError(f"grid for {name} is empty")
        points = [replace(hp, **{name: float(v)})
                  for hp in points for v in values]
    return names, points


def cmd_grid(args):
    out = _out_dir(args)
    base_hp, config = resolve_hyperparams(args)
    dataset = _load_cli_dataset(args, labels_required=True)
    names, points = _build_grid(args, config, base_hp)
    result = grid_search(dataset, points, repeats=args.repeats,
                         restarts=args.restarts, seed=base_hp.seed,
                         refit_per_repeat=args.refit)
    sweep_path = out / "sweep.csv"
    result.write_csv(sweep_path)
    best = {}
    for metric, idx in result.best.items():
        point = result.points[idx]
        best[metric] = {
            "index": idx,
            "hyperparams": asdict(point.hp),
            "mean": getattr(point.report, metric),
            "std": getattr(point.report, f"{metric}_std"),
        }
    report_path = out / "grid_report.json"
    _write_json({"swept": names, "n_points": len(points), "best": best},
                report_path)
    _write_manifest(out, "grid", {
        "swept": names, "n_points": len(points),
        "base": asdict(base_hp), "repeats": args.repeats,
        "restarts": args.restarts, "refit": args.refit,
    }, base_hp.seed, [sweep_path, report_path])
    print(f"grid: {len(points)} points swept over {', '.join(names)}")
    return 0


def cmd_ablate(args):
    # Fail before the preparation and the fits, not at the first scoring.
    check_protocol(args.repeats, args.restarts)
    out = _out_dir(args)
    base_hp, _ = resolve_hyperparams(args)
    dataset = _load_cli_dataset(args, labels_required=True)
    rows = []
    artifacts = []
    # The variants share every preprocessing field, so one preparation
    # serves all three fits.
    prepared = prepare_inputs(dataset, base_hp)
    for variant in ("full", "common_only", "no_consistency"):
        hp = replace(base_hp, variant=variant)
        state, trace = fit(dataset, hp, prepared=prepared)
        trace_path = out / f"trace_{variant}.csv"
        trace.write_csv(trace_path)
        artifacts.append(trace_path)
        z = embed(dataset, state)
        report = evaluate_embedding(
            z.data, dataset.labels, repeats=args.repeats,
            restarts=args.restarts, seed=hp.seed)
        rows.append((variant, report))
    csv_path = out / "ablation.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("variant,nmi_mean,nmi_std,acc_mean,acc_std,"
                 "purity_mean,purity_std\n")
        for variant, r in rows:
            fh.write(",".join([variant, repr(r.nmi), repr(r.nmi_std),
                               repr(r.acc), repr(r.acc_std),
                               repr(r.purity), repr(r.purity_std)]) + "\n")
    text_path = out / "ablation.txt"
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(f"{'variant':<16}{'NMI':<18}{'ACC':<18}{'Purity':<18}\n")
        for variant, r in rows:
            fh.write(f"{variant:<16}"
                     f"{r.nmi:.4f} ± {r.nmi_std:.4f}   "
                     f"{r.acc:.4f} ± {r.acc_std:.4f}   "
                     f"{r.purity:.4f} ± {r.purity_std:.4f}\n")
    artifacts += [csv_path, text_path]
    _write_manifest(out, "ablate", asdict(base_hp), base_hp.seed, artifacts)
    for variant, r in rows:
        print(f"{variant}: NMI {r.nmi:.4f}  ACC {r.acc:.4f}  "
              f"Purity {r.purity:.4f}")
    return 0


def _emit_error(args, kind, message, **extra):
    doc = {"error": kind, "message": message}
    doc.update({k: v for k, v in extra.items() if v is not None})
    line = json.dumps(doc, sort_keys=True)
    print(line, file=sys.stderr)
    out = getattr(args, "out", None)
    if out is not None:
        try:
            path = Path(out)
            path.mkdir(parents=True, exist_ok=True)
            with open(path / "error.json", "w", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError:
            pass


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericFailure as err:
        _emit_error(args, "numeric_failure", str(err), view=err.view,
                    iteration=err.iteration)
        return 3
    except (DataError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as err:
        _emit_error(args, "config_error", str(err))
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
