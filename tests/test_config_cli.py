"""Config parsing and command-line behaviour.

All CLI checks call main() in-process so exit codes and file outputs can be
asserted directly; nothing here shells out.
"""

import dataclasses
import hashlib
import json
import pathlib
import struct

import numpy as np
import pytest

import fedagm
import fedagm.cli
from fedagm.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from fedagm.config import (
    build_dataset,
    build_problem,
    load_json_file,
    parse_config,
    parse_partition,
    parse_server,
)
from fedagm.errors import ConfigError, ParameterError
from fedagm.numerics import RngStream
from fedagm.orchestrator import TAG_PARTITION, run_experiment
from fedagm.partition import (
    empirical_label_histogram,
    mean_label_entropy,
    partition,
    write_partition_report,
)
from fedagm.serialize import METRICS_HEADER, fmt17, load_model
from fedagm.server import _NAMED, named_optimizer


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

    @pytest.mark.parametrize("name", sorted(_NAMED))
    def test_every_preset_parses_like_its_explicit_section(self, name):
        preset = named_optimizer(name, 0.3)
        cal = preset.calibration
        explicit = {
            "kind": preset.kind,
            "eta": 0.3,
            "beta1": preset.beta1,
            "beta2": preset.beta2,
            "calibration": {"scheme": cal.scheme, "eps": cal.eps, "p": cal.p, "beta": cal.beta},
        }
        assert parse_server({"name": name, "eta": 0.3}, "server") == parse_server(explicit, "server")

    @pytest.mark.parametrize("eta", [0, -1])
    @pytest.mark.parametrize("head", [{"name": "FedAdam"}, {"kind": "adam"}], ids=["name", "kind"])
    def test_eta_error_names_server_eta_in_both_forms(self, tmp_path, capsys, head, eta):
        obj = quad_config(server={**head, "eta": eta})
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: server.eta: ")
        assert not out.exists()

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

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_one_class_idx_dataset_is_a_config_error(self, tmp_path, capsys, kind):
        # the labels set num_classes, and a task needs two
        n, rows, cols = 20, 2, 2
        with open(tmp_path / "images.idx", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
            fh.write(bytes(range(n * rows * cols)))
        with open(tmp_path / "labels.idx", "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, n))
            fh.write(bytes(n))
        obj = quad_config(
            task={
                "kind": kind,
                "hidden": 3,
                "dataset": {"source": "idx", "images": "images.idx", "labels": "labels.idx"},
            },
            partition={"scheme": "uniform", "num_clients": 2},
            sampling={"clients_per_round": 2},
        )
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: task: ")
        assert not out.exists()

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

    def test_full_sampling_of_fewer_clients_exits_1(self, tmp_path, capsys):
        # caught when the config is built, not by sample_round at round 0
        obj = quad_config(sampling={"clients_per_round": 3, "mode": "full"})
        obj["task"]["num_clients"] = 5
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config: ")
        assert "sampling.clients_per_round = N = 5, got 3" in err
        assert not out.exists()

    def test_negative_class_group_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, logistic_config(class_groups=[-1, 0, 1, 1]))
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: partition: ")
        assert "class_groups" in err
        assert not out.exists()

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
    def test_frozen_server_exits_as_diverged_naming_the_array(self, tmp_path, capsys):
        # v overflows to inf and x stops moving; this run used to exit 0 with
        # "diverged": false and repeat its first loss every round
        obj = quad_config(
            rounds=5,
            task={
                "kind": "logistic",
                "weight_decay": 0.0,
                "dataset": {"source": "blobs", "n": 200, "num_classes": 4, "num_features": 3},
            },
            partition={"scheme": "sort", "num_clients": 6, "classes_per_client": 2},
            local={"steps": 3, "gamma": 1e300, "batch_size": 5},
            server={"name": "FedAdam", "eta": 0.05},
        )
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_DIVERGED
        assert "diverged at round 1; last logged round is 0; server v overflowed" in capsys.readouterr().err
        report = json.loads((out / "bound_report.json").read_text())
        assert report["diverged"] is True and report["divergence_round"] == 1
        assert report["overflowed"] == "v"
        assert "constants" not in report
        assert len(read_rows(out / "metrics.csv")) == 1

    # a beta of 1e-310 or 1e-320 froze the server: every stepsize was 0
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_largest_stepsize_is_a_config_error_naming_its_key(self, tmp_path, capsys):
        for i, (key, calibration) in enumerate((
            ("eps", {"scheme": "epsilon", "eps": 1e-320}),
            ("beta", {"scheme": "softplus", "beta": 1.7e308}),
            ("beta", {"scheme": "softplus", "beta": 1e-310}),
            ("beta", {"scheme": "softplus", "beta": 1e-320}),
        )):
            obj = quad_config(server={"name": "FedAdam", "eta": 0.1, "calibration": calibration})
            out = tmp_path / str(i)
            assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith(f"config error: server.calibration.{key}: ")
            assert not out.exists()
        # log(2)/1e-308 is finite, so the largest stepsize is > 0
        calibration = {"scheme": "softplus", "beta": 1e-308}
        obj = quad_config(server={"name": "s-FedAdam", "eta": 0.1, "calibration": calibration})
        assert main(["run", write_config(tmp_path, obj), "--out", str(tmp_path / "ok")]) == EXIT_OK

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

    def test_a_rate_envelope_that_did_not_fall_is_reported(self, tmp_path):
        # the running average of ||grad f||^2 ends above its midpoint value
        obj = quad_config(rounds=40, server={"name": "FedAvg", "eta": 1.0})
        obj["task"].update(num_clients=4, dim=2, heterogeneity=0.0)
        obj["sampling"]["clients_per_round"] = 2
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "bound_report.json").read_text())
        assert report["rate_envelope"]["satisfied"] is False

    @quiet_overflow
    def test_a_batch_wider_than_every_shard_still_writes_the_bound_report(self, tmp_path):
        # no client is sampled, so the noise probe draws nothing: sigma_i = 0
        obj = logistic_config()
        obj["local"]["batch_size"] = 2**62
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "bound_report.json").read_text())
        assert report["constants"]["sigma_i"] == [0.0] * 4

    @quiet_overflow
    @pytest.mark.parametrize("key", ["heterogeneity", "anchor_noise"])
    def test_overflowing_quadratic_anchors_are_a_config_error(self, tmp_path, capsys, key):
        obj = quad_with("task", **{key: 1e308})
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: task: ")
        assert not out.exists()

    @quiet_overflow
    def test_bound_report_is_strict_json(self, tmp_path):
        # (K gamma)^2 underflows to 0 while 24 G^2 overflows, so V is NaN
        obj = quad_config(rounds=200, seed=1, server={"name": "FedAvg", "eta": 1.0})
        obj["task"].update(
            num_clients=2, dim=1, heterogeneity=3e-143, curvature_range=[1e296, 1e296],
            samples_per_client=4, anchor_noise=0.0,
        )
        obj["local"] = {"steps": 1, "gamma": 1e-300, "batch_size": 4}
        obj["sampling"]["clients_per_round"] = 2
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_OK

        def reject(constant):
            raise ValueError(f"{constant} in bound_report.json")

        report = json.loads((out / "bound_report.json").read_text(), parse_constant=reject)
        assert report["notes"].startswith("bound analysis unavailable: V must be finite")


def logistic_config(**partition):
    return quad_config(
        task={
            "kind": "logistic",
            "dataset": {"source": "blobs", "n": 60, "num_classes": 4, "num_features": 3},
        },
        partition={"scheme": "dirichlet", "num_clients": 4, "alpha": 1.0} | partition,
    )


def quad_with(section, **fields):
    obj = quad_config()
    obj[section] = obj.get(section, {}) | fields
    return obj


WRONG_TYPES = [
    ("run", quad_with("schedules", gamma={"kind": "multistage", "fractions": ["a"]}), "schedules.gamma.fractions[0]"),
    ("run", quad_with("schedules", eta={"kind": "multistage", "fractions": [None]}), "schedules.eta.fractions[0]"),
    ("run", logistic_config(alpha="x"), "partition.alpha"),
    ("run", logistic_config(scheme="sort", classes_per_client="x"), "partition.classes_per_client"),
    ("run", logistic_config(class_groups=["a"]), "partition.class_groups[0]"),
    ("run", logistic_config(class_groups=[0.5, 1.7]), "partition.class_groups[0]"),
    ("run", quad_with("task", curvature_range=["a", "b"]), "task.curvature_range[0]"),
    ("run", quad_with("local", epoch_mode="no"), "local.epoch_mode"),
    (
        "compare",
        {"config": quad_config(), "methods": [{"name": "FedAvg", "eta": 1.0}], "seeds": [True]},
        "manifest.seeds[0]",
    ),
    (
        "compare",
        {"config": quad_config(), "methods": [{"name": "FedAvg", "eta": 1.0, "label": 5}]},
        "manifest.methods[0].label",
    ),
]


@pytest.mark.parametrize(
    "command, obj, where", WRONG_TYPES, ids=[where for _, _, where in WRONG_TYPES]
)
def test_wrong_json_type_is_a_config_error_naming_its_path(tmp_path, capsys, command, obj, where):
    out = tmp_path / "out"
    path = write_config(tmp_path, obj | ({"out": str(out)} if command == "compare" else {}))
    argv = [command, path] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}: expected ")
    assert not out.exists()


BEYOND_INT64 = [
    (quad_with("local", steps=2**70), "local.steps"),
    (quad_with("local", batch_size=2**63), "local.batch_size"),
    (quad_with("sampling", clients_per_round=2**70), "sampling.clients_per_round"),
    (quad_with("task", dim=2**70), "task.dim"),
    (quad_with("task", samples_per_client=2**70), "task.samples_per_client"),
    (logistic_config(num_clients=2**70), "partition.num_clients"),
    (logistic_config(class_groups=[0, -(2**70)]), "partition.class_groups[1]"),
]


@pytest.mark.parametrize("obj, where", BEYOND_INT64, ids=[where for _, where in BEYOND_INT64])
def test_integer_beyond_int64_is_a_config_error_naming_its_path(tmp_path, capsys, obj, where):
    # each used to end in a NumPy ValueError or OverflowError traceback
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, obj), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}: expected an integer in int64 range, got ")
    assert not out.exists()


def test_seed_beyond_int64_still_runs(tmp_path):
    # seeds are hashed as Python ints, so no int64 bound applies to them
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, quad_config(seed=2**70)), "--out", str(out)]) == EXIT_OK
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(b'{"seed": ' + b"7" * 5000 + b"}", id="5000-digit-integer"),
        pytest.param(b'{"seed": 1, "note": "\xff"}', id="not-utf8"),
        pytest.param(b"[" * 100000 + b"]" * 100000, id="deeply-nested"),
    ],
)
def test_unreadable_document_is_a_config_error_naming_its_file(tmp_path, capsys, blob):
    # json raises a plain ValueError past Python's 4300-digit int limit and
    # RecursionError past the recursion limit, and reading bytes that are
    # not UTF-8 raises UnicodeDecodeError
    path = tmp_path / "config.json"
    path.write_bytes(blob)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")
    assert not out.exists()


NON_FINITE = [
    ("local.gamma", "NaN"),
    ("local.gamma", "Infinity"),
    ("local.gamma", "1e999"),
    ("local.gamma", "1" + "0" * 400),
    ("server.eta", "NaN"),
    ("server.calibration.eps", "NaN"),
    ("task.weight_decay", "NaN"),
    ("local.prox_mu", "NaN"),
    ("task.dataset.noise", "NaN"),
    ("task.test_fraction", "NaN"),
    ("partition.alpha", "NaN"),
    ("schedules.gamma.fractions[0]", "-Infinity"),
]


@pytest.mark.parametrize(
    "where, literal", NON_FINITE, ids=[f"{where}={literal[:8]}" for where, literal in NON_FINITE]
)
def test_non_finite_number_is_a_config_error_naming_its_path(tmp_path, capsys, where, literal):
    # json reads NaN, Infinity and 1e999; each used to end in a divergence or a traceback
    obj = logistic_config() | {
        "server": {"name": "FedAdam", "eta": 0.1, "calibration": {"scheme": "epsilon", "eps": 0.01}},
        "schedules": {"gamma": {"kind": "multistage", "fractions": [0.5]}},
    }
    *sections, key = where.replace("[0]", ".0").split(".")
    node = obj
    for name in sections:
        node = node[name]
    node[int(key) if key.isdigit() else key] = "@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj).replace('"@"', literal))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {where}: expected a finite number, got ")
    assert not out.exists()


nan, inf = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: fedagm.LocalConfig(K=1, gamma=nan, batch_size=1), id="gamma-nan"),
        pytest.param(lambda: fedagm.LocalConfig(K=1, gamma=inf, batch_size=1), id="gamma-inf"),
        pytest.param(lambda: fedagm.LocalConfig(K=1, gamma=0.1, batch_size=1, prox_mu=nan), id="prox_mu-nan"),
        pytest.param(lambda: fedagm.ServerOptimizer("adam", nan, 0.9, 0.99), id="eta-nan"),
        pytest.param(lambda: fedagm.Calibration("epsilon", eps=nan), id="eps-nan"),
        pytest.param(lambda: fedagm.Calibration("softplus", beta=inf), id="beta-inf"),
        pytest.param(lambda: fedagm.PartitionSpec("dirichlet", 4, alpha=nan), id="alpha-nan"),
        pytest.param(lambda: fedagm.LogisticRegressionTask(3, 2, weight_decay=nan), id="logistic-wd-nan"),
        pytest.param(lambda: fedagm.MlpTask(3, 4, 2, weight_decay=inf), id="mlp-wd-inf"),
        pytest.param(lambda: fedagm.QuadraticTask([1.0], [0.0], weight_decay=nan), id="quadratic-wd-nan"),
        pytest.param(lambda: fedagm.QuadraticTask([inf], [0.0]), id="quadratic-curvature-inf"),
        pytest.param(lambda: fedagm.QuadraticTask([nan], [0.0]), id="quadratic-curvature-nan"),
        pytest.param(lambda: fedagm.QuadraticTask([1.0], [inf]), id="quadratic-center-inf"),
    ],
)
def test_constructors_reject_non_finite_hyperparameters(build):
    with pytest.raises(ParameterError, match="finite"):
        build()


def test_no_module_reads_the_environment():
    # a run is a function of its config and seed; no environment variable may change it
    for path in sorted(pathlib.Path(fedagm.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "os.environ" not in text and "getenv" not in text, path.name


def test_only_tasks_reads_the_stacked_row_layout():
    # callers hand `data_gradients` rows of each client's own shard; where a
    # client's rows sit in the stacked arrays is known to `tasks` alone
    for path in sorted(pathlib.Path(fedagm.__file__).parent.glob("*.py")):
        if path.name != "tasks.py":
            assert ".starts" not in path.read_text(), path.name


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

    def test_each_cell_matches_a_run_of_its_config(self, tmp_path):
        out = tmp_path / "cmp"
        path = self.manifest(tmp_path, out)
        assert main(["compare", path]) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for sec, label in zip(manifest["methods"], ("FedAvg", "adam-small-eta")):
            for seed in manifest["seeds"]:
                cfg = write_config(tmp_path, manifest["config"] | {"server": sec, "seed": seed})
                run_out = tmp_path / f"run-{label}-{seed}"
                assert main(["run", cfg, "--out", str(run_out)]) == EXIT_OK
                for ext in ("csv", "jsonl"):
                    cell = (out / f"{label}_seed{seed}.{ext}").read_bytes()
                    assert cell == (run_out / f"metrics.{ext}").read_bytes()

    def test_compare_bad_manifest_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"methods": []}, name="m.json")
        assert main(["compare", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("obj", ["config", [1, 2], 3])
    def test_manifest_must_be_an_object(self, tmp_path, capsys, obj):
        path = write_config(tmp_path, obj, name="m.json")
        assert main(["compare", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: manifest: expected a JSON object\n"

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

    def test_parses_each_seed_once_and_runs_each_cell_once(self, tmp_path, monkeypatch):
        parsed, ran = [], []

        def counting_parse(obj, base_dir="."):
            parsed.append(obj["seed"])
            return parse_config(obj, base_dir=base_dir)

        def counting_run(cfg):
            ran.append((cfg.seed, cfg.server.kind, cfg.problem))
            return run_experiment(cfg)

        monkeypatch.setattr(fedagm.cli, "parse_config", counting_parse)
        monkeypatch.setattr(fedagm.cli, "run_experiment", counting_run)
        assert main(["compare", self.manifest(tmp_path, tmp_path / "cmp")]) == EXIT_OK
        assert parsed == [0, 1]
        assert [(seed, kind) for seed, kind, _ in ran] == [(0, "avg"), (0, "adam"), (1, "avg"), (1, "adam")]
        # the methods of one seed run on that seed's one problem
        assert ran[0][2] is ran[1][2] and ran[2][2] is ran[3][2]
        assert ran[0][2] is not ran[2][2]

    def test_base_that_fails_to_build_fails_every_cell(self, tmp_path, capsys):
        base = logistic_config(num_clients=500)  # more clients than samples
        obj = {
            "config": base,
            "methods": [{"name": "FedAvg", "eta": 1.0}, {"name": "FedAdam", "eta": 0.1}],
            "seeds": [0, 1],
            "out": str(tmp_path / "cmp"),
        }
        assert main(["compare", write_config(tmp_path, obj, name="m.json")]) == EXIT_CONFIG
        failed = capsys.readouterr().err.splitlines()
        assert [line.split(": FAILED")[0] for line in failed] == [
            "cell FedAvg seed 0", "cell FedAdam seed 0", "cell FedAvg seed 1", "cell FedAdam seed 1"
        ]
        assert all("partition" in line for line in failed)
        lines = (tmp_path / "cmp" / "summary.csv").read_text().strip().split("\n")
        assert [(f[0], f[1], f[4]) for f in (line.split(",") for line in lines[1:])] == [
            ("FedAvg", "0", "2"), ("FedAdam", "0", "2")
        ]

    COLLISIONS = [
        (
            [{"name": "FedAdam", "eta": 0.1}, {"name": "FedAdam", "eta": 0.01}],
            [0, 1],
            "manifest.methods[1]",
        ),
        (
            [{"name": "FedAvg", "eta": 1.0, "label": "a b"}, {"name": "FedAdam", "eta": 0.1, "label": "a_b"}],
            [0],
            "manifest.methods[1]",
        ),
        ([{"name": "FedAvg", "eta": 1.0}], [0, 1, 0], "manifest.seeds[2]"),
    ]

    @pytest.mark.parametrize("methods, seeds, where", COLLISIONS, ids=["name", "stem", "seed"])
    def test_colliding_grid_keys_are_config_errors(self, tmp_path, capsys, methods, seeds, where):
        out = tmp_path / "cmp"
        obj = {"config": quad_config(), "methods": methods, "seeds": seeds, "out": str(out)}
        assert main(["compare", write_config(tmp_path, obj, name="m.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {where}: ")
        assert not out.exists()

    def test_empty_seed_list_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        obj = {"config": quad_config(), "methods": [{"name": "FedAvg", "eta": 1.0}], "seeds": [], "out": str(out)}
        assert main(["compare", write_config(tmp_path, obj, name="m.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: manifest.seeds: expected at least one seed\n"
        assert not out.exists()

    def test_runs_leave_a_shared_problem_unchanged(self):
        # minibatches smaller than every shard, so the runs draw from the rows
        cfg = parse_config(logistic_config() | {"local": {"steps": 3, "gamma": 0.05, "batch_size": 2}})

        def digest():
            h = hashlib.sha256()
            fed = cfg.problem.stacked
            for array in (fed.features, fed.labels, fed.sizes, fed.starts, cfg.problem.weights):
                h.update(array.tobytes())
            for shard in cfg.problem.shards:
                h.update(shard.data.features.tobytes() + shard.data.labels.tobytes())
            return h.hexdigest()

        before = digest()
        for name, eta in (("FedAvg", 1.0), ("FedYogi", 0.05)):
            run_experiment(dataclasses.replace(cfg, server=named_optimizer(name, eta)))
            assert digest() == before


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

    def test_one_dataset_per_seed_matches_direct_partitions(self, tmp_path, monkeypatch):
        out = tmp_path / "parts"
        obj = {
            "dataset": {"source": "blobs", "n": 300, "num_classes": 6, "num_features": 3},
            "partition": {"scheme": "dirichlet", "num_clients": 8, "alpha": 1.0},
            "alpha_grid": [0.1, 1.0, 10.0],
            "seeds": [3, 5, 8],
            "out": str(out),
        }
        built = []

        def counting_build(section, path, seed, base_dir="."):
            built.append(seed)
            return build_dataset(section, path, seed, base_dir)

        monkeypatch.setattr(fedagm.cli, "build_dataset", counting_build)
        assert main(["partition-report", write_config(tmp_path, obj, name="p.json")]) == EXIT_OK
        assert built == [3, 5, 8]

        summary = ["alpha,mean_entropy,seeds"]
        for alpha in obj["alpha_grid"]:
            spec = parse_partition(obj["partition"] | {"alpha": alpha}, "partition")
            entropies = []
            for seed in obj["seeds"]:
                data = build_dataset(obj["dataset"], "dataset", seed)
                shards = partition(data, spec, RngStream(seed).derive(TAG_PARTITION))
                entropies.append(mean_label_entropy(empirical_label_histogram(shards, data.num_classes)))
                if seed == obj["seeds"][0]:
                    direct = tmp_path / "direct.csv"
                    write_partition_report(str(direct), shards, data.num_classes)
                    assert (out / f"partition_alpha{fmt17(alpha)}.csv").read_bytes() == direct.read_bytes()
            summary.append(f"{fmt17(alpha)},{fmt17(float(np.mean(entropies)))},3")
        assert (out / "entropy_summary.csv").read_text() == "\n".join(summary) + "\n"

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

    REPORT = {
        "dataset": {"source": "blobs", "n": 40, "num_classes": 4, "num_features": 3},
        "partition": {"scheme": "dirichlet", "num_clients": 2, "alpha": 1.0},
    }

    def check_config_error(self, tmp_path, capsys, obj, where):
        # each of these used to end in a Python traceback
        path = write_config(tmp_path, obj, name="p.json")
        assert main(["partition-report", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and where in err

    def test_seeds_must_be_a_list_of_integers(self, tmp_path, capsys):
        obj = self.REPORT | {"seeds": "ab", "out": str(tmp_path / "parts")}
        self.check_config_error(tmp_path, capsys, obj, "config.seeds")

    def test_alpha_grid_must_hold_numbers(self, tmp_path, capsys):
        obj = self.REPORT | {"alpha_grid": ["x"], "out": str(tmp_path / "parts")}
        self.check_config_error(tmp_path, capsys, obj, "config.alpha_grid")

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        self.check_config_error(tmp_path, capsys, [1, 2], "config: expected a JSON object")

    def test_out_must_be_a_string(self, tmp_path, capsys):
        self.check_config_error(tmp_path, capsys, self.REPORT | {"out": 5}, "config.out")

    GRID_ERRORS = [
        ({"seeds": [0, 0, 1]}, "config.seeds[1]: seed 0 is repeated"),
        ({"alpha_grid": []}, "config.alpha_grid: "),
        ({"alpha_grid": [0.5], "partition": {"scheme": "sort", "num_clients": 2, "classes_per_client": 1}}, "config.alpha_grid: "),
        ({"alpha_grid": [0.5, 0]}, "config.alpha_grid[1]: "),
        ({"alpha_grid": [-1.0]}, "config.alpha_grid[0]: "),
    ]

    @pytest.mark.parametrize(
        "over, where", GRID_ERRORS, ids=["repeated-seed", "empty-grid", "sort-scheme", "zero-alpha", "negative-alpha"]
    )
    def test_grid_rules_are_config_errors(self, tmp_path, capsys, over, where):
        out = tmp_path / "parts"
        path = write_config(tmp_path, self.REPORT | over | {"out": str(out)}, name="p.json")
        assert main(["partition-report", path]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {where}")
        assert not out.exists()

    def test_alpha_grid_does_not_read_partition_alpha(self, tmp_path):
        part = {"scheme": "dirichlet", "num_clients": 3}
        outs = []
        for name, section in (("placeholder", part | {"alpha": 7.0}), ("absent", part)):
            outs.append(tmp_path / name)
            obj = self.REPORT | {"partition": section, "alpha_grid": [0.2, 2.0], "seeds": [1, 2], "out": str(outs[-1])}
            assert main(["partition-report", write_config(tmp_path, obj, name=f"{name}.json")]) == EXIT_OK
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == ["entropy_summary.csv", "partition_alpha0.20000000000000001.csv", "partition_alpha2.csv"]
        assert all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files)

    def test_partition_failure_names_the_partition_section(self, tmp_path, capsys):
        obj = self.REPORT | {"partition": {"scheme": "uniform", "num_clients": 500}, "out": str(tmp_path / "parts")}
        self.check_config_error(tmp_path, capsys, obj, "config error: partition: ")


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
