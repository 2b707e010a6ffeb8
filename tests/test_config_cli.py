"""Config parsing and command-line behaviour.

All CLI checks call main() in-process so exit codes and file outputs can be
asserted directly; nothing here shells out.
"""

import json
import struct

import numpy as np
import pytest

from fedagm.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from fedagm.config import build_problem, load_json_file, parse_config
from fedagm.errors import ConfigError
from fedagm.serialize import METRICS_HEADER, fmt17, load_model


# The blow-up tests overflow on purpose.
quiet_overflow = pytest.mark.filterwarnings(
    "ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning"
)


def quad_config(**over):
    obj = {
        "seed": 3,
        "rounds": 8,
        "task": {
            "kind": "quadratic",
            "num_clients": 6,
            "dim": 4,
            "heterogeneity": 0.5,
            "samples_per_client": 12,
        },
        "local": {"steps": 2, "gamma": 0.05, "batch_size": 4},
        "sampling": {"clients_per_round": 3},
        "server": {"name": "FedAdam", "eta": 0.1},
    }
    obj.update(over)
    return obj


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_rows(csv_path):
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == METRICS_HEADER
    return [line.split(",") for line in lines[1:]]


class TestParseConfig:
    def test_minimal_config_and_defaults(self):
        obj = quad_config()
        del obj["seed"]
        cfg = parse_config(obj)
        assert cfg.seed == 0
        assert cfg.rounds == 8
        assert cfg.eval_every == 1
        assert cfg.record_walltime is False
        assert cfg.local.K == 2
        assert cfg.local.gamma == 0.05
        assert cfg.local.batch_size == 4
        assert cfg.sampling.S == 3
        assert cfg.sampling.mode == "weighted"
        assert cfg.server.kind == "adam"
        assert cfg.server.eta == 0.1
        assert cfg.gamma_schedule.kind == "constant"
        assert cfg.eta_schedule.kind == "constant"
        assert cfg.problem.N == 6
        assert cfg.problem.dim == 4

    def test_full_server_section(self):
        obj = quad_config(
            server={
                "kind": "amsgrad",
                "eta": 0.2,
                "beta1": 0.8,
                "beta2": 0.95,
                "calibration": {"scheme": "softplus", "beta": 25.0},
            }
        )
        cfg = parse_config(obj)
        assert cfg.server.kind == "amsgrad"
        assert cfg.server.beta1 == 0.8
        assert cfg.server.beta2 == 0.95
        assert cfg.server.calibration.scheme == "softplus"
        assert cfg.server.calibration.beta == 25.0

    def test_named_server_overrides(self):
        cfg = parse_config(quad_config(server={"name": "FedAdam", "eta": 0.1, "beta2": 0.7}))
        assert cfg.server.beta2 == 0.7

    def test_schedule_section(self):
        obj = quad_config(
            schedules={"gamma": {"kind": "multistage", "decay": 0.5, "fractions": [0.5]}}
        )
        cfg = parse_config(obj)
        assert cfg.gamma_schedule.kind == "multistage"
        assert cfg.gamma_schedule.decay == 0.5
        assert cfg.eta_schedule.kind == "constant"

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config([1, 2, 3])

    def test_missing_key_names_json_path(self):
        obj = quad_config()
        del obj["local"]["steps"]
        with pytest.raises(ConfigError, match=r"local\.steps: missing required key"):
            parse_config(obj)

    def test_missing_rounds_names_path(self):
        obj = quad_config()
        del obj["rounds"]
        with pytest.raises(ConfigError, match=r"config\.rounds: missing required key"):
            parse_config(obj)

    def test_bad_enum_lists_choices(self):
        obj = quad_config()
        obj["task"]["kind"] = "cubic"
        with pytest.raises(ConfigError, match=r"task\.kind: expected one of .*quadratic"):
            parse_config(obj)

    def test_wrong_type_reports_value(self):
        obj = quad_config()
        obj["local"]["steps"] = "two"
        with pytest.raises(ConfigError, match=r"local\.steps: expected an integer, got 'two'"):
            parse_config(obj)

    def test_bool_is_not_a_number(self):
        obj = quad_config()
        obj["local"]["gamma"] = True
        with pytest.raises(ConfigError, match=r"local\.gamma: expected a number"):
            parse_config(obj)

    def test_constructor_errors_relabelled_with_path(self):
        obj = quad_config()
        obj["local"]["steps"] = 0
        with pytest.raises(ConfigError, match="local"):
            parse_config(obj)

    def test_unknown_server_name(self):
        with pytest.raises(ConfigError, match="server"):
            parse_config(quad_config(server={"name": "FedFoo", "eta": 1.0}))

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 3,\n  "rounds": }')
        with pytest.raises(ConfigError, match="line 2 column"):
            load_json_file(str(path))


class TestBuildProblem:
    def test_logistic_blobs(self):
        obj = {
            "task": {
                "kind": "logistic",
                "dataset": {
                    "source": "blobs",
                    "n": 60,
                    "num_classes": 3,
                    "num_features": 5,
                },
                "test_fraction": 0.2,
            },
            "partition": {"scheme": "uniform", "num_clients": 4},
        }
        problem = build_problem(obj, seed=0)
        assert problem.N == 4
        assert problem.test_data is not None
        assert problem.test_data.n == 12
        assert sum(s.data.n for s in problem.shards) == 48
        assert problem.shards[0].data.features.shape[1] == 5
        # logistic parameter vector is a flat features x classes block
        assert problem.dim == 5 * 3

    def test_no_test_split_when_fraction_zero(self):
        obj = {
            "task": {
                "kind": "logistic",
                "dataset": {"source": "blobs", "n": 40, "num_classes": 2, "num_features": 3},
                "test_fraction": 0.0,
            },
            "partition": {"scheme": "uniform", "num_clients": 2},
        }
        problem = build_problem(obj, seed=0)
        assert problem.test_data is None
        assert sum(s.data.n for s in problem.shards) == 40

    def test_idx_dataset_paths_join_config_dir(self, tmp_path):
        n, rows, cols = 8, 2, 2
        with open(tmp_path / "images.idx", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
            fh.write(bytes(range(n * rows * cols)))
        with open(tmp_path / "labels.idx", "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, n))
            fh.write(bytes([0, 1] * 4))
        obj = {
            "task": {
                "kind": "logistic",
                "dataset": {"source": "idx", "images": "images.idx", "labels": "labels.idx"},
                "test_fraction": 0.0,
            },
            "partition": {"scheme": "uniform", "num_clients": 2},
        }
        problem = build_problem(obj, seed=0, base_dir=str(tmp_path))
        assert problem.shards[0].data.features.shape[1] == rows * cols
        assert sum(s.data.n for s in problem.shards) == n

    def test_missing_idx_file_is_config_error(self, tmp_path):
        obj = {
            "task": {
                "kind": "logistic",
                "dataset": {"source": "idx", "images": "nope.idx", "labels": "nope2.idx"},
            },
            "partition": {"scheme": "uniform", "num_clients": 2},
        }
        with pytest.raises(ConfigError, match=r"task\.dataset"):
            build_problem(obj, seed=0, base_dir=str(tmp_path))


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path, quad_config())
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_OK

        rows = read_rows(out / "metrics.csv")
        assert len(rows) == 8
        assert [int(r[0]) for r in rows] == list(range(8))

        jsonl = (out / "metrics.jsonl").read_text().strip().split("\n")
        assert len(jsonl) == 8
        assert json.loads(jsonl[0])["t"] == 0

        x = load_model(str(out / "model.bin"))
        assert x.shape == (4,)
        assert np.all(np.isfinite(x))

        report = json.loads((out / "bound_report.json").read_text())
        assert report["method"] == "FedAdam"
        assert report["diverged"] is False
        assert report["rounds_completed"] == 8
        assert "admissible" in report
        assert report["mu_lower"] > 0.0

    def test_seed_override_changes_metrics(self, tmp_path):
        cfg = write_config(tmp_path, quad_config())
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["run", cfg, "--out", str(a)]) == EXIT_OK
        assert main(["run", cfg, "--out", str(b), "--seed", "3"]) == EXIT_OK
        assert main(["run", cfg, "--out", str(c), "--seed", "99"]) == EXIT_OK
        base = (a / "metrics.csv").read_bytes()
        # --seed equal to the config seed is a no-op; a new seed changes rows
        assert (b / "metrics.csv").read_bytes() == base
        assert (c / "metrics.csv").read_bytes() != base

    def test_timing_flag_records_walltime(self, tmp_path):
        cfg = write_config(tmp_path, quad_config())
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--timing"]) == EXIT_OK
        wall = [float(r[-1]) for r in read_rows(out / "metrics.csv")]
        assert all(w >= 0.0 for w in wall)
        assert sum(wall) > 0.0

    def test_eval_every_thins_rows(self, tmp_path):
        cfg = write_config(tmp_path, quad_config(rounds=10, eval_every=4))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "metrics.csv")
        assert [int(r[0]) for r in rows] == [0, 4, 8, 9]

    def test_bad_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_key_exits_1(self, tmp_path, capsys):
        obj = quad_config()
        del obj["server"]
        cfg = write_config(tmp_path, obj)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config.server" in capsys.readouterr().err

    def test_divergence_exits_2(self, tmp_path, capsys):
        obj = quad_config(rounds=60, server={"name": "FedAvg", "eta": 1.0})
        obj["local"]["gamma"] = 50.0
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_DIVERGED
        assert "diverged at round" in capsys.readouterr().err
        report = json.loads((out / "bound_report.json").read_text())
        assert report["diverged"] is True
        assert report["divergence_round"] is not None

    def test_divergence_message_names_the_last_logged_round(self, tmp_path, capsys):
        # The loss cap is checked only on evaluated rounds, so a sparse log
        # finds the divergence late; the message must not call round 0 of
        # such a log the last finite one.
        rounds = {}
        for every in (2000, 1):
            obj = quad_config(rounds=30, eval_every=every, server={"name": "FedAvg", "eta": 1.0})
            obj["task"].update(num_clients=8, dim=4)
            obj["local"]["gamma"] = 5.0
            out = tmp_path / f"out{every}"
            cfg = write_config(tmp_path, obj, name=f"config{every}.json")
            assert main(["run", cfg, "--out", str(out)]) == EXIT_DIVERGED
            report = json.loads((out / "bound_report.json").read_text())
            last = int(read_rows(out / "metrics.csv")[-1][0])
            err = capsys.readouterr().err
            assert f"diverged at round {report['divergence_round']}; last logged round is {last}" in err
            assert "finite" not in err
            rounds[every] = report["divergence_round"]
        assert rounds[1] <= rounds[2000]

    def test_diverged_run_reports_no_constants(self, tmp_path):
        obj = quad_config(rounds=20, server={"name": "FedAvg", "eta": 1.0})
        obj["task"].update(num_clients=8, dim=4)
        obj["local"]["gamma"] = 5.0
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_DIVERGED
        report = json.loads((out / "bound_report.json").read_text())
        assert report["diverged"] is True
        for key in ("constants", "V", "mu_lower", "mu_upper"):
            assert key not in report
        assert f"diverged at round {report['divergence_round']}" in report["notes"]


    @quiet_overflow
    def test_blow_up_in_the_last_round_exits_as_diverged(self, tmp_path, capsys):
        # One round whose step overflows: the log row of round 0 is finite,
        # the final iterate is not, so the run diverged at round T = 1.
        obj = quad_config(rounds=1, server={"name": "FedAvg", "eta": 1.0})
        obj["task"].update(num_clients=8, dim=4)
        obj["local"].update(steps=3, gamma=1e120)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_DIVERGED
        assert "diverged at round 1; last logged round is 0" in capsys.readouterr().err
        report = json.loads((out / "bound_report.json").read_text())
        assert report["diverged"] is True and report["divergence_round"] == 1
        assert "constants" not in report and "V" not in report
        assert report["notes"].startswith("run diverged at round 1")

    @quiet_overflow
    def test_overflowing_stepsize_exits_as_diverged(self, tmp_path):
        obj = quad_config(rounds=1, server={"name": "FedAvg", "eta": 1.0})
        obj["task"].update(num_clients=8, dim=4)
        obj["local"].update(steps=3, gamma=1e200)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_DIVERGED
        report = json.loads((out / "bound_report.json").read_text())
        assert "constants" not in report and "notes" in report

    @quiet_overflow
    def test_overflowing_bound_analysis_becomes_a_note(self, tmp_path):
        # Clients whose anchors all sit at 0 have zero gradients at x0 = 0,
        # so the run stays finite while (K gamma)^2 overflows a float.
        obj = quad_config(rounds=2, server={"name": "FedAvg", "eta": 1.0})
        obj["task"].update(heterogeneity=0.0, anchor_noise=0.0)
        obj["local"]["gamma"] = 1e200
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_OK
        assert np.all(load_model(str(out / "model.bin")) == 0.0)
        report = json.loads((out / "bound_report.json").read_text())
        assert report["diverged"] is False
        assert report["notes"].startswith("bound analysis unavailable")
        assert "constants" not in report


class TestCompareCommand:
    def manifest(self, tmp_path, out):
        obj = {
            "config": quad_config(rounds=6),
            "methods": [
                {"name": "FedAvg", "eta": 1.0},
                {"name": "FedAdam", "eta": 0.1, "label": "adam-small-eta"},
            ],
            "seeds": [0, 1],
            "out": str(out),
        }
        return write_config(tmp_path, obj, name="manifest.json")

    def test_compare_writes_cells_and_summary(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        path = self.manifest(tmp_path, out)
        assert main(["compare", path]) == EXIT_OK
        for stem in ("FedAvg_seed0", "FedAvg_seed1", "adam-small-eta_seed0", "adam-small-eta_seed1"):
            assert (out / f"{stem}.csv").exists()
            assert (out / f"{stem}.jsonl").exists()

        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "method,seeds,final_test_acc_mean,final_test_acc_std,failures"
        cells = [line.split(",") for line in lines[1:]]
        assert [c[0] for c in cells] == ["FedAvg", "adam-small-eta"]
        assert all(c[1] == "2" and c[4] == "0" for c in cells)

        stdout = capsys.readouterr().out
        assert "FedAvg" in stdout and "adam-small-eta" in stdout

    def test_compare_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        p1 = self.manifest(tmp_path, out1)
        p2 = write_config(tmp_path, json.loads((tmp_path / "manifest.json").read_text()) | {"out": str(out2)}, name="m2.json")
        assert main(["compare", p1]) == EXIT_OK
        assert main(["compare", p2]) == EXIT_OK
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        assert (out1 / "FedAvg_seed1.csv").read_bytes() == (out2 / "FedAvg_seed1.csv").read_bytes()
        assert p1 != p2

    def test_compare_bad_manifest_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"methods": []}, name="m.json")
        assert main(["compare", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_compare_reports_per_cell_failures(self, tmp_path, capsys):
        obj = {
            "config": quad_config(rounds=40),
            "methods": [
                {"name": "FedAvg", "eta": 1.0, "label": "ok"},
                # eta large enough to blow past the loss cap
                {"name": "FedAvg", "eta": 1e9, "label": "boom"},
            ],
            "seeds": [0],
            "out": str(tmp_path / "cmp"),
        }
        path = write_config(tmp_path, obj, name="m.json")
        assert main(["compare", path]) == EXIT_OK
        err = capsys.readouterr().err
        assert "cell boom seed 0: FAILED" in err
        lines = (tmp_path / "cmp" / "summary.csv").read_text().strip().split("\n")
        boom = [line for line in lines if line.startswith("boom,")][0]
        assert boom.split(",")[4] == "1"


class TestPartitionReportCommand:
    def test_alpha_grid_files_and_entropy_order(self, tmp_path):
        out = tmp_path / "parts"
        obj = {
            "dataset": {"source": "blobs", "n": 400, "num_classes": 8, "num_features": 3},
            "partition": {"scheme": "dirichlet", "num_clients": 10, "alpha": 1.0},
            "alpha_grid": [0.05, 1.0, 100.0],
            "seeds": [0, 1, 2],
            "out": str(out),
        }
        path = write_config(tmp_path, obj, name="preport.json")
        assert main(["partition-report", path]) == EXIT_OK

        for alpha in (0.05, 1.0, 100.0):
            per_alpha = out / f"partition_alpha{fmt17(alpha)}.csv"
            assert per_alpha.exists()
            lines = per_alpha.read_text().strip().split("\n")
            assert lines[0].startswith("client,")
            assert len(lines) == 1 + 10

        lines = (out / "entropy_summary.csv").read_text().strip().split("\n")
        assert lines[0] == "alpha,mean_entropy,seeds"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [0.05, 1.0, 100.0]
        assert all(r[2] == "3" for r in rows)
        entropies = [float(r[1]) for r in rows]
        assert entropies[0] < entropies[1] < entropies[2]

    def test_non_dirichlet_scheme_single_report(self, tmp_path):
        out = tmp_path / "parts"
        obj = {
            "dataset": {"source": "blobs", "n": 120, "num_classes": 4, "num_features": 3},
            "partition": {"scheme": "uniform", "num_clients": 5},
            "out": str(out),
        }
        path = write_config(tmp_path, obj, name="preport.json")
        assert main(["partition-report", path]) == EXIT_OK
        assert (out / "partition_uniform.csv").exists()
        lines = (out / "entropy_summary.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith(",")

    def test_missing_dataset_section_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"partition": {"scheme": "uniform", "num_clients": 2}}, name="p.json")
        assert main(["partition-report", path]) == EXIT_CONFIG
        assert "dataset" in capsys.readouterr().err


class TestThreadEnv:
    def test_metrics_bytes_identical_across_thread_counts(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, quad_config(rounds=10))
        blobs = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("FEDOPT_THREADS", threads)
            out = tmp_path / f"t{threads}"
            assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
            blobs[threads] = (
                (out / "metrics.csv").read_bytes(),
                (out / "model.bin").read_bytes(),
            )
        assert blobs["1"] == blobs["4"]

    def test_compare_threads_identical(self, tmp_path, monkeypatch):
        base = {
            "config": quad_config(rounds=5),
            "methods": [{"name": "FedAvg", "eta": 1.0}, {"name": "FedYogi", "eta": 0.1}],
            "seeds": [0, 1, 2],
        }
        blobs = {}
        for threads in ("1", "3"):
            out = tmp_path / f"cmp{threads}"
            path = write_config(tmp_path, base | {"out": str(out)}, name=f"m{threads}.json")
            monkeypatch.setenv("FEDOPT_THREADS", threads)
            assert main(["compare", path]) == EXIT_OK
            blobs[threads] = (
                (out / "summary.csv").read_bytes(),
                (out / "FedYogi_seed2.csv").read_bytes(),
            )
        assert blobs["1"] == blobs["3"]
