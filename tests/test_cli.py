import dataclasses
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from treecast import bundle as bundle_io
from treecast import hypertree, treenet
from treecast.cli import _config_echo, main, prepare_dataset, run_scaling_benchmark
from treecast.config import ABLATIONS, config_from_dict, load_config
from treecast.errors import ConfigError
from treecast.hypertree import TrainLog

import reference_forecast

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


@pytest.fixture
def runner():
    return CliRunner()


def base_config(tmp_path, **model_overrides):
    cfg = {
        "seed": 42,
        "data": {"path": "bundled:air_passengers.csv"},
        "features": {"calendar": ["month", "quarter"], "summary": False},
        "model": {"family": "hypertree", "target": "ar", "p": 12},
        "boosting": {"rounds": 10},
        "eval": {"horizon": 12},
    }
    for key, value in model_overrides.items():
        section, field = key.split(".")
        cfg.setdefault(section, {})[field] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def bundle_files(bundle_dir):
    skip = {"training_log.csv", "training_notes.txt"}
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(bundle_dir).iterdir())
        if p.name not in skip
    }


class TestTrain:
    def test_writes_bundle(self, runner, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "bundle"
        res = runner.invoke(main, ["train", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "manifest.json").exists()
        assert (out / "code_map.json").exists()
        assert (out / "training_log.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["ensemble_files"]) == 12
        for f in manifest["ensemble_files"]:
            assert (out / f).exists()

    def test_missing_data_path_exit_2(self, runner, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({"model": {"family": "hypertree", "target": "ar"}}))
        res = runner.invoke(main, ["train", str(cfg_path), "--out", str(tmp_path / "b")])
        assert res.exit_code == 2
        assert "data.path" in res.output

    def test_seed_repeat_byte_identical_model(self, runner, tmp_path):
        cfg = base_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["train", cfg, "--out", str(a)]).exit_code == 0
        assert runner.invoke(main, ["train", cfg, "--out", str(b)]).exit_code == 0
        assert bundle_files(a) == bundle_files(b)

    def test_config_error_lists_all_fields(self, runner, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "model": {"family": "nope", "target": "wat"},
            "eval": {"horizon": 0},
            "boosting": {"learning_rate": 7},
        }))
        res = runner.invoke(main, ["train", str(cfg_path)])
        assert res.exit_code == 2
        for needle in ("model.family", "model.target", "eval.horizon", "boosting.learning_rate"):
            assert needle in res.output

    def test_set_override(self, runner, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "bundle"
        res = runner.invoke(main, ["train", cfg, "--out", str(out),
                                   "--set", "boosting.rounds=3"])
        assert res.exit_code == 0
        log = (out / "training_log.csv").read_text().strip().splitlines()
        assert len(log) == 1 + 3

    def test_baseline_family(self, runner, tmp_path):
        cfg = base_config(tmp_path, **{"model.family": "baseline"})
        out = tmp_path / "bl"
        res = runner.invoke(main, ["train", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["family"] == "baseline"
        assert "AirPassengers" in manifest["per_series"]


class TestBaselineGridSearch:
    config = str(Path(__file__).resolve().parent.parent / "configs/baseline_ets_reference.yaml")

    def test_airline_picks_0_4(self, runner, tmp_path):
        res = runner.invoke(main, ["train", self.config, "--set", "model.grid_search=true",
                                   "--out", str(tmp_path / "bl")])
        assert res.exit_code == 0, res.output
        params = json.loads((tmp_path / "bl" / "manifest.json").read_text())["params"]
        assert params == {"alpha": 0.4, "beta": 0.4, "gamma": 0.4, "phi": 0.4}

    def test_no_scored_candidate_exit_3(self, runner, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("series_id,timestamp,value\n" + "".join(
            f"{sid},2000-0{t + 1}-01,{v + t}\n" for sid, v in (("a", 1), ("b", 4)) for t in range(3)))
        res = runner.invoke(main, ["train", self.config, "--set", "model.grid_search=true",
                                   "--set", f"data.path={data}", "--out", str(tmp_path / "bl")])
        assert res.exit_code == 3, res.output
        assert "grid search" in res.output


def panel_config(tmp_path, exposure_cell):
    """Two monthly series with a numeric feature; one training cell is replaceable."""
    rows = ["series_id,timestamp,value,exposure"]
    for sid in ("a", "b"):
        for t in range(30):
            rows.append(f"{sid},{2000 + t // 12}-{t % 12 + 1:02d}-01,{10 + t % 7},{1 + t % 5}")
    rows[5] = rows[5].rsplit(",", 1)[0] + "," + exposure_cell
    data = tmp_path / "panel.csv"
    data.write_text("\n".join(rows) + "\n")
    cfg = {
        "seed": 1,
        "data": {"path": str(data), "numeric": ["exposure"]},
        "features": {"calendar": ["month"], "summary": False},
        "model": {"family": "hypertree", "target": "ar", "p": 2},
        "boosting": {"rounds": 2},
        "eval": {"horizon": 3},
    }
    path = tmp_path / "panel.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path), data


class TestNonFiniteFeatures:
    def test_train_exit_3(self, runner, tmp_path):
        cfg, _ = panel_config(tmp_path, "inf")
        res = runner.invoke(main, ["train", cfg, "--out", str(tmp_path / "b")])
        assert res.exit_code == 3, res.output
        assert "row 6: non-finite value 'inf' in column 'exposure'" in res.output

    def test_forecast_exit_3(self, runner, tmp_path):
        cfg, data = panel_config(tmp_path, "2")
        out = tmp_path / "b"
        assert runner.invoke(main, ["train", cfg, "--out", str(out)]).exit_code == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(data.read_text().replace("a,2000-05-01,14,2", "a,2000-05-01,14,nan"))
        res = runner.invoke(main, ["forecast", "--bundle", str(out), "--data", str(bad),
                                   "--out", str(tmp_path / "fc.csv")])
        assert res.exit_code == 3, res.output
        assert "row 6: non-finite value 'nan' in column 'exposure'" in res.output


class TestIngestFaults:
    """CSV faults that once ended in a traceback or were quietly misread."""

    airline = (Path(__file__).resolve().parent.parent
               / "src/treecast/bundled/air_passengers.csv").read_text()

    def train(self, runner, tmp_path, data):
        return runner.invoke(main, ["train", base_config(tmp_path), "--set", f"data.path={data}",
                                    "--out", str(tmp_path / "b")])

    def test_short_row_exit_3(self, runner, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text(self.airline.replace("1954-01-01,204", "1954-01-01"))
        res = self.train(runner, tmp_path, data)
        assert res.exit_code == 3, res.output
        assert "row 62: no cell for column 'value' (the row has 2 cells)" in res.output

    def test_undecodable_byte_exit_3(self, runner, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes(self.airline.replace("AirPassengers", "caf\xe9").encode("latin-1"))
        res = self.train(runner, tmp_path, data)
        assert res.exit_code == 3, res.output
        assert f"{data}: not UTF-8 text" in res.output

    def test_oversized_cell_exit_3(self, runner, tmp_path):
        """A cell past the csv module's field size limit is a data error, in
        training and at forecast time."""
        good, huge = tmp_path / "good.csv", tmp_path / "huge.csv"
        good.write_text(self.airline)
        huge.write_text(self.airline.replace("1954-01-01,204", "1954-01-01," + "9" * 200_000))
        res = self.train(runner, tmp_path, huge)
        assert res.exit_code == 3, res.output
        assert f"{huge}: line 62: field larger than field limit" in res.output
        assert self.train(runner, tmp_path, good).exit_code == 0
        res = runner.invoke(main, ["forecast", "--bundle", str(tmp_path / "b"), "--data", str(huge),
                                   "--out", str(tmp_path / "fc.csv")])
        assert res.exit_code == 3, res.output
        assert f"{huge}: line 62: field larger than field limit" in res.output

    def test_byte_order_mark_trains(self, runner, tmp_path):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + self.airline.encode("utf-8"))
        res = self.train(runner, tmp_path, data)
        assert res.exit_code == 0, res.output
        fc = tmp_path / "fc.csv"
        res = runner.invoke(main, ["forecast", "--bundle", str(tmp_path / "b"), "--data", str(data),
                                   "--out", str(fc)])
        assert res.exit_code == 0, res.output
        assert fc.read_text().splitlines()[1].startswith("AirPassengers,1961-01-01,")

    def test_weekly_stamps_exit_3(self, runner, tmp_path):
        data = tmp_path / "weekly.csv"
        start = np.datetime64("2018-01-04")
        data.write_text("series_id,timestamp,value\n" + "".join(
            f"w,{start + np.timedelta64(7 * k, 'D')},{100 + k % 9}\n" for k in range(150)))
        res = self.train(runner, tmp_path, data)
        assert res.exit_code == 3, res.output
        assert ("series 'w': first gap of 7 days fits no supported frequency "
                "(daily, monthly, yearly); set data.frequency") in res.output


class TestForecast:
    def test_h12_rows(self, runner, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "bundle"
        runner.invoke(main, ["train", cfg, "--out", str(out)])
        fc = tmp_path / "fc.csv"
        res = runner.invoke(main, ["forecast", "--bundle", str(out), "--out", str(fc)])
        assert res.exit_code == 0, res.output
        lines = fc.read_text().strip().splitlines()
        assert lines[0] == "series_id,timestamp,value"
        assert len(lines) == 13
        assert lines[1].startswith("AirPassengers,1961-01-01,")

    def test_zero_round_ar_forecasts_zero(self, runner, tmp_path):
        cfg = base_config(tmp_path, **{"boosting.rounds": 0})
        out = tmp_path / "bundle"
        runner.invoke(main, ["train", cfg, "--out", str(out)])
        fc = tmp_path / "fc.csv"
        runner.invoke(main, ["forecast", "--bundle", str(out), "--out", str(fc)])
        values = [float(l.split(",")[2]) for l in fc.read_text().strip().splitlines()[1:]]
        assert values == [0.0] * 12

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "bundle"
        runner.invoke(main, ["train", cfg, "--out", str(out)])
        f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        runner.invoke(main, ["forecast", "--bundle", str(out), "--out", str(f1)])
        runner.invoke(main, ["forecast", "--bundle", str(out), "--out", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()


def _drop_family(bundle):
    manifest = json.loads((bundle / "manifest.json").read_text())
    del manifest["family"]
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    return "manifest.json", "family"


def _truncate_ensemble(bundle):
    target = bundle / "ensemble_00_ar_1.json"
    target.write_text(target.read_text()[:40])
    return "ensemble_00_ar_1.json", "JSON"


def _remove_ensemble(bundle):
    (bundle / "ensemble_00_ar_1.json").unlink()
    return "ensemble_00_ar_1.json", "missing"


def _drop_trees(bundle):
    target = bundle / "ensemble_00_ar_1.json"
    ens = json.loads(target.read_text())
    del ens["trees"]
    target.write_text(json.dumps(ens))
    return "ensemble_00_ar_1.json", "missing field 'trees'"


def _ensemble_not_object(bundle):
    (bundle / "ensemble_00_ar_1.json").write_text("[1, 2]")
    return "ensemble_00_ar_1.json", "invalid field"


def _unknown_kind(bundle):
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["spec"]["kind"] = "arima"
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    return "manifest.json", "kind 'arima'"


def _remove_code_map(bundle):
    (bundle / "code_map.json").unlink()
    return "code_map.json", "missing"


@pytest.fixture(scope="module")
def trained_bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    res = CliRunner().invoke(main, ["train", base_config(tmp, **{"boosting.rounds": 2}),
                                    "--out", str(tmp / "bundle")])
    assert res.exit_code == 0, res.output
    return tmp / "bundle"


class TestBundleErrors:
    @pytest.mark.parametrize("corrupt", [_drop_family, _truncate_ensemble, _remove_ensemble,
                                         _drop_trees, _ensemble_not_object, _unknown_kind,
                                         _remove_code_map])
    def test_malformed_bundle_exit_3(self, runner, tmp_path, trained_bundle, corrupt):
        bundle = tmp_path / "bundle"
        shutil.copytree(trained_bundle, bundle)
        fname, field = corrupt(bundle)
        res = runner.invoke(main, ["forecast", "--bundle", str(bundle),
                                   "--out", str(tmp_path / "fc.csv")])
        assert res.exit_code == 3, res.output
        assert res.output.startswith("data error: ")
        assert fname in res.output and field in res.output, res.output

    def test_previous_baseline_manifest_exit_3(self, runner, tmp_path):
        """A baseline manifest that still holds target/p/m in place of the
        target spec is rejected, naming the missing field."""
        bundle = tmp_path / "bundle"
        res = runner.invoke(main, ["train", base_config(tmp_path, **{"model.family": "baseline"}),
                                   "--out", str(bundle)])
        assert res.exit_code == 0, res.output
        manifest = json.loads((bundle / "manifest.json").read_text())
        spec = manifest.pop("spec")
        manifest.update(target=spec["kind"], p=spec["p"], m=spec["m"])
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        res = runner.invoke(main, ["forecast", "--bundle", str(bundle),
                                   "--out", str(tmp_path / "fc.csv")])
        assert res.exit_code == 3, res.output
        assert "manifest.json" in res.output and "missing field 'spec'" in res.output


def _edit_json(path, edit):
    d = json.loads(path.read_text())
    edit(d)
    path.write_text(json.dumps(d))


def _drop_last_ensemble_file(bundle):
    _edit_json(bundle / "manifest.json", lambda m: m["ensemble_files"].pop())
    return "manifest.json", "ensemble_files lists 2 ensembles"


def _cut_base_raw(bundle):
    _edit_json(bundle / "manifest.json", lambda m: m.update(base_raw=m["base_raw"][:1]))
    return "manifest.json", "base_raw"


def _split_on_feature_99(bundle):
    def edit(ens):
        stack = list(ens["trees"])
        while stack[-1]["type"] != "split":
            stack.pop()
        stack[-1]["feature"] = 99
    _edit_json(bundle / "ensemble_00_ar_1.json", edit)
    return "ensemble_00_ar_1.json", "feature 99"


def _cut_decoder_outputs(bundle):
    def edit(m):
        m["mlp"]["W2"] = [row[:2] for row in m["mlp"]["W2"]]
        m["mlp"]["b2"] = m["mlp"]["b2"][:2]
    _edit_json(bundle / "manifest.json", edit)
    return "manifest.json", "mlp.W2"


def _cut_projection(bundle):
    _edit_json(bundle / "manifest.json", lambda m: m.update(projection=m["projection"][:2]))
    return "manifest.json", "projection"


def _cut_linear_coefficients(bundle):
    """Drop one coefficient of the first linear leaf with terms."""
    for path in sorted(bundle.glob("ensemble_*.json")):
        ens = json.loads(path.read_text())
        stack = list(ens["trees"])
        while stack:
            node = stack.pop()
            if node["type"] == "split":
                stack += [node["left"], node["right"]]
            elif node.get("lin_coef"):
                node["lin_coef"].pop()
                path.write_text(json.dumps(ens))
                return path.name, "coefficients"
    raise AssertionError("no linear leaf with terms")


@pytest.fixture(scope="module")
def ar3_bundles(tmp_path_factory):
    """{variant: bundle} of the shipped airline AR configs at p = 3, 3 rounds;
    ``linear`` is the hypertree one with linear leaves."""
    tmp = tmp_path_factory.mktemp("ar3")
    variants = {"hypertree": ("air_passengers_ar.yaml",),
                "linear": ("air_passengers_ar.yaml", "--set", "boosting.linear_leaves=true",
                           "--set", "boosting.max_depth=2"),
                "treenet": ("air_passengers_treenet.yaml",)}
    for variant, (name, *sets) in variants.items():
        config = str(CONFIGS[0].parent / name)
        res = CliRunner().invoke(main, ["train", config, "--set", "model.p=3",
                                        "--set", "boosting.rounds=3", *sets,
                                        "--out", str(tmp / variant)])
        assert res.exit_code == 0, res.output
    return {variant: tmp / variant for variant in variants}


class TestBundleConsistency:
    """A bundle whose parts disagree exits 3 naming the file and field; it
    used to end in a traceback or to forecast from the parts that fit."""

    @pytest.mark.parametrize("variant, corrupt", [
        ("hypertree", _drop_last_ensemble_file), ("hypertree", _cut_base_raw),
        ("hypertree", _split_on_feature_99), ("linear", _cut_linear_coefficients),
        ("treenet", _cut_decoder_outputs), ("treenet", _cut_projection)])
    def test_exit_3(self, runner, tmp_path, ar3_bundles, variant, corrupt):
        bundle = tmp_path / "bundle"
        shutil.copytree(ar3_bundles[variant], bundle)
        fname, field = corrupt(bundle)
        res = runner.invoke(main, ["forecast", "--bundle", str(bundle),
                                   "--out", str(tmp_path / "fc.csv")])
        assert res.exit_code == 3, res.output
        assert res.output.startswith("data error: ")
        assert fname in res.output and field in res.output, res.output


class TestEvaluate:
    def write(self, path, rows):
        path.write_text("series_id,timestamp,value\n"
                        + "\n".join(f"{s},{t},{v}" for s, t, v in rows) + "\n")

    def test_perfect_forecast_zero_errors_and_mase(self, runner, tmp_path):
        rows = [("a", "2020-01-01", 10.0), ("a", "2020-02-01", 12.0)]
        fc, ac, ref = tmp_path / "f.csv", tmp_path / "a.csv", tmp_path / "r.csv"
        self.write(fc, rows)
        self.write(ac, rows)
        self.write(ref, [("a", "2020-01-01", 11.0), ("a", "2020-02-01", 13.0)])
        rep = tmp_path / "rep.csv"
        res = runner.invoke(main, ["evaluate", "--forecast", str(fc), "--actuals", str(ac),
                                   "--reference", str(ref), "--out", str(rep)])
        assert res.exit_code == 0, res.output
        lines = rep.read_text().strip().splitlines()
        mean = lines[-1].split(",")
        header = lines[0].split(",")
        for name in ("MAPE", "sMAPE", "WAPE", "RMSE", "MAE", "MASE"):
            assert float(mean[header.index(name)]) == 0.0

    def test_reference_equal_to_forecast_mase_one(self, runner, tmp_path):
        actual = [("a", "2020-01-01", 10.0), ("a", "2020-02-01", 12.0)]
        pred = [("a", "2020-01-01", 11.0), ("a", "2020-02-01", 13.0)]
        fc, ac, ref = tmp_path / "f.csv", tmp_path / "a.csv", tmp_path / "r.csv"
        self.write(fc, pred)
        self.write(ac, actual)
        self.write(ref, pred)
        rep = tmp_path / "rep.csv"
        res = runner.invoke(main, ["evaluate", "--forecast", str(fc), "--actuals", str(ac),
                                   "--reference", str(ref), "--out", str(rep)])
        assert res.exit_code == 0
        lines = rep.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert float(lines[-1].split(",")[header.index("MASE")]) == 1.0

    def test_reference_flow_end_to_end(self, runner, tmp_path):
        """Baseline smoothing generates the reference file for the scaled error."""
        from treecast.datasets import bundled_path

        repo = Path(__file__).resolve().parent.parent
        lines = Path(bundled_path("air_passengers.csv")).read_text().strip().splitlines()
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("\n".join(lines[:-12]) + "\n")  # keep header, drop 1960
        ac = tmp_path / "actuals.csv"
        ac.write_text("series_id,timestamp,value\n" + "\n".join(lines[-12:]) + "\n")

        bl = tmp_path / "baseline"
        res = runner.invoke(main, ["train", str(repo / "configs/baseline_ets_reference.yaml"),
                                   "--set", f"data.path={train_csv}", "--out", str(bl)])
        assert res.exit_code == 0, res.output
        ref = tmp_path / "reference.csv"
        assert runner.invoke(main, ["forecast", "--bundle", str(bl),
                                    "--out", str(ref)]).exit_code == 0

        model_b = tmp_path / "model"
        assert runner.invoke(main, ["train", str(repo / "configs/air_passengers_ar.yaml"),
                                    "--set", "boosting.rounds=20",
                                    "--set", f"data.path={train_csv}",
                                    "--out", str(model_b)]).exit_code == 0
        fc = tmp_path / "fc.csv"
        assert runner.invoke(main, ["forecast", "--bundle", str(model_b),
                                    "--out", str(fc)]).exit_code == 0

        rep = tmp_path / "report.csv"
        res = runner.invoke(main, ["evaluate", "--forecast", str(fc), "--actuals", str(ac),
                                   "--reference", str(ref), "--out", str(rep),
                                   "--runtime-minutes", "0.05"])
        assert res.exit_code == 0, res.output
        lines = rep.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "MASE" in header
        mean = lines[-1].split(",")
        assert float(mean[header.index("MASE")]) > 0
        assert mean[header.index("runtime_minutes")] == "0.05"

    def test_ids_with_comma_and_quote_round_trip(self, runner, tmp_path):
        """Train, forecast and evaluate on series ids that need CSV quoting."""
        import csv

        ids = ('north,1', 'say "hi"')
        rows = [(sid, f"{2000 + t // 12}-{t % 12 + 1:02d}-01", 50.0 + 3 * k + t % 12)
                for k, sid in enumerate(ids) for t in range(39)]
        train_csv, ac = tmp_path / "train.csv", tmp_path / "actuals.csv"
        for path, part in ((train_csv, [r for r in rows if r[1] < "2003"]),
                           (ac, [r for r in rows if r[1] >= "2003"])):
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([("series_id", "timestamp", "value"), *part])
        cfg = base_config(tmp_path, **{"data.path": str(train_csv), "model.p": 3,
                                       "eval.horizon": 3})
        bundle, fc, rep = tmp_path / "b", tmp_path / "fc.csv", tmp_path / "rep.csv"
        assert runner.invoke(main, ["train", cfg, "--out", str(bundle)]).exit_code == 0
        res = runner.invoke(main, ["forecast", "--bundle", str(bundle), "--out", str(fc)])
        assert res.exit_code == 0, res.output
        with open(fc, newline="") as fh:
            fc_rows = list(csv.reader(fh))[1:]
        assert [r[:2] for r in fc_rows] == [[sid, f"2003-{m:02d}-01"] for sid in ids
                                            for m in (1, 2, 3)]
        res = runner.invoke(main, ["evaluate", "--forecast", str(fc), "--actuals", str(ac),
                                   "--out", str(rep)])
        assert res.exit_code == 0, res.output
        with open(rep, newline="") as fh:
            assert [r[2] for r in csv.reader(fh)] == ["series_id", *sorted(ids), "MEAN"]

    def test_mismatched_series_exit_3(self, runner, tmp_path):
        fc, ac = tmp_path / "f.csv", tmp_path / "a.csv"
        self.write(fc, [("a", "2020-01-01", 1.0)])
        self.write(ac, [("b", "2020-01-01", 1.0)])
        res = runner.invoke(main, ["evaluate", "--forecast", str(fc), "--actuals", str(ac),
                                   "--out", str(tmp_path / "rep.csv")])
        assert res.exit_code == 3
        assert "a @ 2020-01-01" in res.output

    def evaluate(self, runner, tmp_path, forecast, actuals):
        """Score two CSVs given as text or bytes; the result and the report's MEAN row."""
        fc, ac, rep = tmp_path / "f.csv", tmp_path / "a.csv", tmp_path / "rep.csv"
        for path, content in ((fc, forecast), (ac, actuals)):
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
        res = runner.invoke(main, ["evaluate", "--forecast", str(fc), "--actuals", str(ac),
                                   "--out", str(rep)])
        if res.exit_code != 0:
            return res, None
        header, *_, mean = rep.read_text().splitlines()
        return res, dict(zip(header.split(","), mean.split(",")))

    ONE_ROW = "series_id,timestamp,value\na,2020-01-01,10.0\n"

    @pytest.mark.parametrize("actuals, mae", [
        pytest.param(b"\xef\xbb\xbf" + ONE_ROW.encode(), 0.0, id="byte_order_mark"),
        pytest.param("series_id,timestamp,value\na,2020-01,12.5\n", 2.5, id="month_stamp"),
        pytest.param("timestamp,series_id,value\n2020-01-01,a,12.5\n", 2.5, id="column_order"),
    ])
    def test_actuals_read_by_the_training_rules(self, runner, tmp_path, actuals, mae):
        res, mean = self.evaluate(runner, tmp_path, self.ONE_ROW, actuals)
        assert res.exit_code == 0, res.output
        assert float(mean["MAE"]) == mae

    @pytest.mark.parametrize("forecast, actuals, message", [
        pytest.param(ONE_ROW, b"series_id,timestamp,value\ncaf\xe9,2020-01-01,10.0\n",
                     "actuals: {dir}/a.csv: not UTF-8 text", id="undecodable_byte"),
        pytest.param(ONE_ROW, ONE_ROW + "a,2020-01-01,12.0\n",
                     "actuals: duplicate (series_id, timestamp) key: ('a', 2020-01-01)",
                     id="duplicate_key"),
        pytest.param(ONE_ROW, "series_id,timestamp,value\na,2020-01-01,nan\n",
                     "actuals: row 2: non-finite target 'nan'", id="nan_actual"),
        pytest.param("series_id,timestamp,value\n", ONE_ROW,
                     "forecast: {dir}/f.csv: no data rows", id="header_only_forecast"),
    ])
    def test_read_fault_exit_3(self, runner, tmp_path, forecast, actuals, message):
        res, _ = self.evaluate(runner, tmp_path, forecast, actuals)
        assert res.exit_code == 3, res.output
        assert "data error: " + message.format(dir=tmp_path) in res.output


class TestDecompose:
    def test_constant_series_flat_seasonal(self, runner, tmp_path):
        data = tmp_path / "const.csv"
        rows = ["series_id,timestamp,value"]
        from datetime import date
        from treecast.data import extend_timestamps

        stamps = [date(2000, 1, 1)] + extend_timestamps(date(2000, 1, 1), "monthly", 47)
        rows += [f"c,{t.isoformat()},42.0" for t in stamps]
        data.write_text("\n".join(rows) + "\n")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "seed": 1,
            "data": {"path": str(data)},
            "features": {"calendar": ["month", "quarter"], "summary": False},
            "model": {"family": "hypertree", "target": "stl", "n_season": 1},
            "boosting": {"rounds": 50},
            "eval": {"horizon": 6},
        }))
        out = tmp_path / "dec"
        res = runner.invoke(main, ["decompose", str(cfg_path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "components.csv").read_text().strip().splitlines()[1:]
        seas = [abs(float(l.split(",")[3])) for l in lines]
        assert max(seas) < 1e-3
        assert (out / "parameters.csv").exists()
        assert (out / "importances.csv").exists()

    def test_requires_stl_target(self, runner, tmp_path):
        cfg = base_config(tmp_path)
        res = runner.invoke(main, ["decompose", cfg, "--out", str(tmp_path / "d")])
        assert res.exit_code == 2

    def test_baseline_family_rejected_by_config(self, runner, tmp_path):
        """The baseline family has no stl target, so its config fails
        validation before decompose reads any data."""
        repo = Path(__file__).resolve().parent.parent
        out = tmp_path / "d"
        res = runner.invoke(main, ["decompose", str(repo / "configs/air_passengers_stl.yaml"),
                                   "--set", "model.family=baseline", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "model.target: the baseline family supports" in res.output
        assert not out.exists()

    def test_untrained_model_gives_zero_seasonal(self, runner, tmp_path):
        repo = Path(__file__).resolve().parent.parent
        out = tmp_path / "dec0"
        res = runner.invoke(main, ["decompose", str(repo / "configs/air_passengers_stl.yaml"),
                                   "--set", "boosting.rounds=0", "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "components.csv").read_text().strip().splitlines()[1:]
        assert all(float(l.split(",")[3]) == 0.0 for l in lines)

    def test_airline_decomposition_tracks_classical(self, runner, tmp_path):
        repo = Path(__file__).resolve().parent.parent
        out = tmp_path / "dec"
        res = runner.invoke(main, ["decompose", str(repo / "configs/air_passengers_stl.yaml"),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        from treecast.baselines import classical_decompose
        from treecast.datasets import bundled_path
        from treecast.data import ingest_csv

        ds = ingest_csv(bundled_path("air_passengers.csv"))
        trend_ref, seas_ref, _ = classical_decompose(ds.y, 12)
        lines = (out / "components.csv").read_text().strip().splitlines()[1:]
        trend = np.array([float(l.split(",")[2]) for l in lines])
        seas = np.array([float(l.split(",")[3]) for l in lines])
        ok = ~np.isnan(trend_ref)
        assert np.corrcoef(trend[ok], trend_ref[ok])[0, 1] >= 0.95
        assert np.corrcoef(seas[ok], seas_ref[ok])[0, 1] >= 0.95
        imp = (out / "importances.csv").read_text().strip().splitlines()
        assert imp[0] == "parameter_name,feature,total_gain"


class TestExport:
    def test_parameter_export(self, runner, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "bundle"
        runner.invoke(main, ["train", cfg, "--out", str(out)])
        exp = tmp_path / "params.csv"
        res = runner.invoke(main, ["export", "--bundle", str(out), "--what", "parameters",
                                   "--out", str(exp)])
        assert res.exit_code == 0, res.output
        lines = exp.read_text().strip().splitlines()
        assert lines[0] == "series_id,timestamp,parameter_name,value,phase"
        names = {l.split(",")[2] for l in lines[1:]}
        assert names == {f"ar_{j}" for j in range(1, 13)}
        phases = {l.split(",")[4] for l in lines[1:]}
        assert phases == {"train", "forecast"}
        # 144 train rows + 12 forecast rows, 12 parameters each
        assert len(lines) - 1 == (144 + 12) * 12

    def test_embeddings_from_treenet(self, runner, tmp_path):
        cfg = base_config(tmp_path, **{"model.family": "treenet"})
        out = tmp_path / "bundle"
        res = runner.invoke(main, ["train", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        exp = tmp_path / "emb.csv"
        res = runner.invoke(main, ["export", "--bundle", str(out), "--what", "embeddings",
                                   "--out", str(exp)])
        assert res.exit_code == 0
        lines = exp.read_text().strip().splitlines()
        dims = {l.split(",")[2] for l in lines[1:]}
        assert dims == {"0"}
        assert len(lines) - 1 == 144 + 12

    def test_embeddings_from_hypertree_capability_error(self, runner, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "bundle"
        runner.invoke(main, ["train", cfg, "--out", str(out)])
        res = runner.invoke(main, ["export", "--bundle", str(out), "--what", "embeddings"])
        assert res.exit_code == 2

    def test_ragged_smoothing_panel_writes_each_key_once(self, runner, tmp_path):
        """Every parameter row of the unequal-length smoothing panel is a
        real row: 180 training rows and 3 x 12 forecast rows, 4 parameters
        each, and no (series, timestamp, parameter) key twice."""
        config = Path(__file__).resolve().parent.parent / "configs/panel_ets.yaml"
        bundle, exp = tmp_path / "b", tmp_path / "params.csv"
        res = runner.invoke(main, ["train", str(config), "--set", "boosting.rounds=2",
                                   "--out", str(bundle)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["export", "--bundle", str(bundle), "--what", "parameters",
                                   "--out", str(exp)])
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in exp.read_text().splitlines()[1:]]
        keys = [tuple(row[:3]) for row in rows]
        assert len(set(keys)) == len(keys)
        phases = [row[4] for row in rows]
        assert phases.count("train") == 180 * 4
        assert phases.count("forecast") == 3 * 12 * 4

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_horizon_below_one_exit_2(self, runner, tmp_path, trained_bundle, horizon):
        exp = tmp_path / "params.csv"
        res = runner.invoke(main, ["export", "--bundle", str(trained_bundle), "--what",
                                   "parameters", "--horizon", horizon, "--out", str(exp)])
        assert res.exit_code == 2, res.output
        assert "horizon: must be >= 1" in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert not exp.exists()


class TestBenchScaling:
    def test_smoke(self, runner, tmp_path):
        out = tmp_path / "scaling.csv"
        res = runner.invoke(main, ["bench-scaling", "--p-list", "1,2", "--n-rows", "300",
                                   "--iterations", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "P,family,median_seconds_per_iter,relative"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 4
        for row in rows:
            if row[0] == "1":
                assert float(row[3]) == 1.0

    @pytest.mark.parametrize("args, option", [
        (["--p-list", "0"], "--p-list"),
        (["--p-list", "1,-3"], "--p-list"),
        (["--iterations", "0"], "--iterations"),
        (["--n-rows", "0"], "--n-rows"),
        (["--n-rows", "-5"], "--n-rows"),
        (["--repeats", "0"], "--repeats"),
    ])
    def test_option_below_one_exit_2(self, runner, tmp_path, monkeypatch, args, option):
        def no_training(*args):
            raise AssertionError("trained despite an invalid option")

        monkeypatch.setattr(hypertree, "train", no_training)
        monkeypatch.setattr(treenet, "train", no_training)
        out = tmp_path / "scaling.csv"
        res = runner.invoke(main, ["bench-scaling", *args, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert option in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert not out.exists()

    def test_trains_with_the_configured_boosting_section(self, monkeypatch):
        """Every timed run gets the config's boosting section with only the
        round count replaced; leaf settings included."""
        seen = []

        def fake_train(ds, spec, boost_cfg, *args):
            seen.append(boost_cfg)
            log = TrainLog()
            for r in range(1, boost_cfg.rounds + 1):
                log.rows.append((r, 0.0, 0.01 * r))
            return None, log

        monkeypatch.setattr(hypertree, "train", fake_train)
        monkeypatch.setattr(treenet, "train", fake_train)
        cfg = config_from_dict({"boosting": {"linear_leaves": True, "linear_ridge": 0.5,
                                             "lambda": 2.0, "max_depth": 3, "min_leaf": 7,
                                             "learning_rate": 0.2}})
        run_scaling_benchmark(cfg, [1, 2], 400, 8, seed=7, repeats=1)
        assert len(seen) == 2 * (1 + 2)  # per family: a warm-up and one run per P
        assert {c.rounds for c in seen} == {2, 8}
        for c in seen:
            assert c == dataclasses.replace(cfg.boosting, rounds=c.rounds)


class TestConfig:
    def test_ablation_switch_coverage(self):
        assert set(ABLATIONS) == {f"a{i}" for i in range(1, 12)}

    def test_each_switch_changes_exactly_its_field(self):
        base = config_from_dict({"model": {"p": 21}})
        mapping = {
            "a1": lambda c: c.net.d == 5,
            "a2": lambda c: c.boosting.linear_leaves is False,
            "a3": lambda c: c.net.hidden == 256,
            "a4": lambda c: c.net.use_projection is False,
            "a5": lambda c: c.model.p == 14,
            "a6": lambda c: c.features.summary is False,
            "a7": lambda c: c.net.encoder == "features",
            "a8": lambda c: c.model.target == "direct",
            "a10": lambda c: c.net.flow == "shared",
            "a11": lambda c: c.eval.average_parameters is True,
        }
        for switch, check in mapping.items():
            cfg = config_from_dict({"model": {"p": 21}, "ablations": {switch: True}})
            assert check(cfg), switch

    def test_average_parameters_needs_ar_target_exit_2(self, runner, tmp_path):
        for override in ({"eval.average_parameters": True}, {"ablations.a11": True}):
            cfg = base_config(tmp_path, **{"model.target": "ets"}, **override)
            res = runner.invoke(main, ["train", cfg, "--out", str(tmp_path / "b")])
            assert res.exit_code == 2, res.output
            assert "eval.average_parameters" in res.output

    def test_a9_not_supported(self):
        with pytest.raises(ConfigError, match="a9"):
            config_from_dict({"ablations": {"a9": True}})

    def test_all_off_is_base(self):
        off = {f"a{i}": False for i in range(1, 12)}
        a = config_from_dict({"ablations": off})
        b = config_from_dict({})
        assert a.net == b.net
        assert a.model == b.model
        assert a.boosting == b.boosting

    @pytest.mark.parametrize("family", [None, "treenet"])
    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_echo_survives_json_round_trip(self, path, family):
        """`treecast forecast` validates the bundle's config echo again, as
        JSON gave it back; every shipped config must come back unchanged."""
        cfg = load_config(str(path), {"model.family": family} if family else None)
        echo = _config_echo(cfg)
        again = config_from_dict(json.loads(json.dumps(echo)))
        assert _config_echo(again) == echo

    def test_unknown_fields_reported(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump({"model": {"wat": 1}, "bogus": {}}))
        with pytest.raises(ConfigError) as exc:
            load_config(str(p))
        assert "model.wat" in str(exc.value)
        assert "bogus" in str(exc.value)


def write_series(tmp_path, series):
    """Monthly CSV from {series_id: values}."""
    rows = ["series_id,timestamp,value"] + [
        f"{sid},{2000 + t // 12}-{t % 12 + 1:02d}-01,{v}"
        for sid, values in series.items() for t, v in enumerate(values)]
    path = tmp_path / "series.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestBaselineConfig:
    """A baseline config is checked before any data is read: the data path
    here does not exist, so a data error (exit 3) would mean it was read."""

    reference = str(Path(__file__).resolve().parent.parent / "configs/baseline_ets_reference.yaml")

    @pytest.mark.parametrize("value", ["1.5", "0", "-0.2", "abc"])
    def test_fixed_value_outside_unit_interval_exit_2(self, runner, tmp_path, value):
        for target in ("ets", "ets_linear"):
            res = runner.invoke(main, ["train", self.reference,
                                       "--set", f"data.path={tmp_path / 'missing.csv'}",
                                       "--set", f"model.target={target}",
                                       "--set", f"model.fixed_value={value}",
                                       "--out", str(tmp_path / "b")])
            assert res.exit_code == 2, res.output
            assert "model.fixed_value: must be in (0, 1]" in res.output

    @pytest.mark.parametrize("target", ["stl", "direct"])
    def test_unsupported_target_exit_2(self, runner, tmp_path, target):
        res = runner.invoke(main, ["train", self.reference,
                                   "--set", f"data.path={tmp_path / 'missing.csv'}",
                                   "--set", f"model.target={target}",
                                   "--out", str(tmp_path / "b")])
        assert res.exit_code == 2, res.output
        assert "model.target: the baseline family supports" in res.output

    def test_fixed_value_one_accepted(self, runner, tmp_path):
        res = runner.invoke(main, ["train", self.reference, "--set", "model.fixed_value=1",
                                   "--out", str(tmp_path / "b")])
        assert res.exit_code == 0, res.output


class TestErrorsNameTheSeries:
    def test_smoothing_start_state(self, runner, tmp_path):
        t = np.arange(24)
        data = write_series(tmp_path, {
            "good": 100 + 10 * np.sin(t),
            "bad": np.concatenate([np.full(12, -5.0), 100 + t[12:]]),
        })
        cfg = base_config(tmp_path, **{"model.target": "ets", "model.m": 12,
                                       "data.path": data, "boosting.rounds": 2})
        res = runner.invoke(main, ["train", cfg, "--out", str(tmp_path / "b")])
        assert res.exit_code == 4, res.output
        assert "series 'bad': multiplicative smoothing needs a positive starting level" in res.output

    @pytest.mark.parametrize("family, grid_search", [
        ("hypertree", False), ("baseline", True), ("baseline", False)])
    def test_smoothing_start_state_fails_training(self, runner, tmp_path, family, grid_search):
        """Every family, and the baseline in both modes, fails at train, not
        at forecast or per grid candidate, naming the series."""
        data = write_series(tmp_path, {"a": 100 + 10 * np.sin(np.arange(36)),
                                       "b": np.full(36, 1e-9)})
        cfg = base_config(tmp_path, **{"model.family": family, "model.target": "ets",
                                       "model.m": 12, "model.grid_search": grid_search,
                                       "data.path": data, "boosting.rounds": 2})
        out = tmp_path / "b"
        res = runner.invoke(main, ["train", cfg, "--out", str(out)])
        assert res.exit_code == 4, res.output
        assert ("numeric failure: series 'b': multiplicative smoothing needs a positive "
                "starting level") in res.output
        assert not out.exists()

    @pytest.mark.parametrize("sid, values, message", [
        ("short", np.arange(4.0), "4 observations are too short for an AR(2) fit"),
        ("flat", np.zeros(20), "rank-deficient AR design"),
    ])
    def test_ar_baseline_fit(self, runner, tmp_path, sid, values, message):
        data = write_series(tmp_path, {"a": 10 + np.sin(np.arange(30)), sid: values})
        cfg = base_config(tmp_path, **{"model.family": "baseline", "model.p": 2,
                                       "data.path": data})
        res = runner.invoke(main, ["train", cfg, "--out", str(tmp_path / "b")])
        assert res.exit_code == 3, res.output
        assert f"series '{sid}': {message}" in res.output


AR_CONFIG = str(Path(__file__).resolve().parent.parent / "configs/air_passengers_ar.yaml")


class TestConfigTypes:
    """A field of the wrong type or out of range exits 2 naming the field,
    once; the data path does not exist, so the config is rejected before
    data is read."""

    @pytest.mark.parametrize("overrides, message", [
        (["boosting.learning_rate=abc"], "boosting.learning_rate: must be a number"),
        (["model.p=abc"], "model.p: must be an integer"),
        (["model.p=abc", "ablations.a5=true"], "model.p: must be an integer"),
        (["boosting.rounds=2.5"], "boosting.rounds: must be an integer"),
        (["boosting.min_leaf=true"], "boosting.min_leaf: must be an integer"),
        (["boosting.lambda=false"], "boosting.lambda: must be a number"),
        (["eval.horizon=[12]"], "eval.horizon: must be an integer"),
        (["model.m=monthly"], "model.m: must be an integer"),
        (["net.dropout=abc"], "net.dropout: must be a number"),
        (["net.betas=0.9"], "net.betas: must be a pair of numbers"),
        (["boosting.linear_leaves=abc"], "boosting.linear_leaves: must be a boolean"),
        (["net.use_projection=yes_please"], "net.use_projection: must be a boolean"),
        (["features.summary=0"], "features.summary: must be a boolean"),
        (["data.path=5"], "data.path: must be a string"),
        (["features.calendar=month"], "features.calendar: must be a list of strings"),
        (["data.categorical=abc"], "data.categorical: must be a list of strings"),
        (["net.flow=3"], "net.flow: must be one of ('separate', 'shared')"),
        (["model.target=ets", "model.m=0"], "model.m: must be >= 1"),
        (["model.target=ets_linear", "model.m=-3"], "model.m: must be >= 1"),
        (["model.target=stl", "model.period=0"], "model.period: must be >= 1"),
        (["model.target=stl", "model.n_season=-1"], "model.n_season: must be >= 0"),
        (["model.target=stl", "model.penalty=-1"], "model.penalty: must be >= 0"),
        (["model.family=treenet", "net.hidden=0"], "net.hidden: must be >= 1"),
        (["model.family=treenet", "net.hidden=-5"], "net.hidden: must be >= 1"),
        (["model.family=treenet", "net.k=0"], "net.k: must be >= 1"),
        (["model.family=treenet", "net.lr=-1"], "net.lr: must be > 0"),
        (["boosting.linear_ridge=-1"], "boosting.linear_ridge: must be >= 0"),
        (["model.family=treenet", "net.betas=[1.5,-1]"], "net.betas: must be two numbers in [0, 1)"),
        (["model.family=treenet", "net.betas=[0.9,1.0]"], "net.betas: must be two numbers in [0, 1)"),
        (["boosting.lambda=.inf"], "boosting.lambda: must be >= 0 and finite"),
        (["boosting.linear_ridge=.inf"], "boosting.linear_ridge: must be >= 0 and finite"),
        (["model.family=treenet", "net.lr=.inf"], "net.lr: must be > 0 and finite"),
        (["model.target=stl", "model.penalty=.inf"], "model.penalty: must be >= 0 and finite"),
    ])
    def test_wrong_type_exit_2(self, runner, tmp_path, overrides, message):
        args = ["train", AR_CONFIG, "--set", f"data.path={tmp_path / 'missing.csv'}",
                "--out", str(tmp_path / "b")]
        for override in overrides:
            args += ["--set", override]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert res.output.count(message.split(": ")[0] + ":") == 1, res.output  # one error
        assert "Traceback" not in res.output

    def test_int_for_a_float_field_accepted(self, runner, tmp_path):
        res = runner.invoke(main, ["train", AR_CONFIG, "--set", "boosting.rounds=2",
                                   "--set", "boosting.lambda=2", "--set", "boosting.learning_rate=1",
                                   "--out", str(tmp_path / "b")])
        assert res.exit_code == 0, res.output


class TestShortHistory:
    """Forecasting a series with fewer observations than the AR order exits 3
    naming the series."""

    @pytest.mark.parametrize("family", ["hypertree", "baseline"])
    def test_ar_forecast_exit_3(self, runner, tmp_path, family):
        bundle = tmp_path / "b"
        res = runner.invoke(main, ["train", AR_CONFIG, "--set", "boosting.rounds=2",
                                   "--set", f"model.family={family}", "--out", str(bundle)])
        assert res.exit_code == 0, res.output
        bundled = Path(__file__).resolve().parent.parent / "src/treecast/bundled/air_passengers.csv"
        short = tmp_path / "short.csv"
        short.write_text("".join(bundled.read_text().splitlines(keepends=True)[:6]))
        res = runner.invoke(main, ["forecast", "--bundle", str(bundle), "--data", str(short),
                                   "--out", str(tmp_path / "fc.csv")])
        assert res.exit_code == 3, res.output
        assert ("series 'AirPassengers': an AR(12) forecast needs 12 observed values, got 5"
                in res.output)


class TestFarFuture:
    """A forecast stamp past the year 9999 exits 3 naming the series and its
    last stamp, without a traceback or an output file."""

    @pytest.mark.parametrize("command", ["forecast", "export"])
    def test_huge_horizon_exit_3(self, runner, tmp_path, trained_bundle, command):
        out = tmp_path / "out.csv"
        what = ["--what", "parameters"] if command == "export" else []
        res = runner.invoke(main, [command, "--bundle", str(trained_bundle), *what,
                                   "--horizon", "100000", "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert ("series 'AirPassengers': a horizon of 100000 from its last stamp 1960-12-01 "
                "runs past the year 9999") in res.output
        assert not out.exists()

    def test_last_stamp_in_year_9999_exit_3(self, runner, tmp_path):
        rows = ["series_id,timestamp,value"] + [
            f"a,{9998 + t // 12}-{t % 12 + 1:02d}-01,{10 + np.sin(t)}" for t in range(24)]
        data = tmp_path / "late.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = base_config(tmp_path, **{"data.path": str(data), "model.p": 2,
                                       "boosting.rounds": 2})
        bundle, out = tmp_path / "b", tmp_path / "fc.csv"
        res = runner.invoke(main, ["train", cfg, "--out", str(bundle)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["forecast", "--bundle", str(bundle), "--horizon", "1",
                                   "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert ("series 'a': a horizon of 1 from its last stamp 9999-12-01 runs past the "
                "year 9999") in res.output
        assert not out.exists()


def write_yearly(tmp_path, series):
    """Yearly CSV from {series_id: (stamps, values)}."""
    rows = ["series_id,timestamp,value"] + [
        f"{sid},{ts},{v}" for sid, (stamps, values) in series.items()
        for ts, v in zip(stamps, values)]
    path = tmp_path / "yearly.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def feb_stamps(first, last_leap):
    """28 February of the years first..last_leap - 1, then 29 February."""
    return [f"{y}-02-28" for y in range(first, last_leap)] + [f"{last_leap}-02-29"]


class TestLeapDay:
    """A yearly stamp on 29 February steps to 28 February a year later."""

    def test_forecast_after_leap_day(self, runner, tmp_path):
        stamps = feb_stamps(1991, 2020)
        data = write_yearly(tmp_path, {"a": (stamps, 10 + np.sin(np.arange(len(stamps))))})
        cfg = base_config(tmp_path, **{"data.path": data, "data.frequency": "yearly",
                                       "model.p": 2, "boosting.rounds": 2, "eval.horizon": 3})
        bundle, fc = tmp_path / "b", tmp_path / "fc.csv"
        res = runner.invoke(main, ["train", cfg, "--out", str(bundle)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["forecast", "--bundle", str(bundle), "--out", str(fc)])
        assert res.exit_code == 0, res.output
        stamps = [line.split(",")[1] for line in fc.read_text().splitlines()[1:]]
        assert stamps == ["2021-02-28", "2022-02-28", "2023-02-28"]

    def test_padding_after_leap_day(self, runner, tmp_path):
        long, short = feb_stamps(1990, 2020), feb_stamps(1990, 2008)
        data = write_yearly(tmp_path, {
            "long": (long, 50 + np.arange(len(long))),
            "short": (short, 40 + np.arange(len(short))),
        })
        cfg = base_config(tmp_path, **{"data.path": data, "data.frequency": "yearly",
                                       "model.target": "ets_linear", "boosting.rounds": 2})
        res = runner.invoke(main, ["train", cfg, "--out", str(tmp_path / "b")])
        assert res.exit_code == 0, res.output


class TestLagWarning:
    """A series of at most p rows is warned about when the AR design is
    built for training, not when forecasting."""

    def test_warned_at_training_only(self, runner, tmp_path):
        data = write_series(tmp_path, {"a": 10 + np.sin(np.arange(30)), "short": [4.0, 5.0, 6.0]})
        cfg = base_config(tmp_path, **{"data.path": data, "model.p": 3, "boosting.rounds": 2})
        bundle, fc = tmp_path / "b", tmp_path / "fc.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["train", cfg, "--out", str(bundle)])
        assert res.exit_code == 0, res.output
        message = "series 'short' has 3 rows, fewer than p+1=4; excluded from lag training"
        assert [str(w.message) for w in caught] == [message]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["forecast", "--bundle", str(bundle), "--out", str(fc)])
        assert res.exit_code == 0, res.output
        assert not caught, [str(w.message) for w in caught]

        model, manifest, code_maps = bundle_io.load_bundle(bundle)
        ds = prepare_dataset(config_from_dict(manifest["config"]), code_maps=code_maps)
        want = reference_forecast.forecast(model, ds, 12)
        rows = [line.split(",") for line in fc.read_text().splitlines()[1:]]
        assert [(sid, ts) for sid, ts, _ in rows] == [
            (sid, ts.isoformat()) for sid, (_, stamps) in want.items() for ts in stamps]
        assert [float(v) for *_, v in rows] == [v for fc, _ in want.values() for v in fc]
