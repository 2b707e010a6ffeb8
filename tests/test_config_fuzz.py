"""Config fuzzer: `fedagm run` on configs drawn over every section.

Float keys take the edge values 0, the smallest subnormal, a subnormal,
1 and 1e300; keys that size an array stay small, except that the ones
sizing a quadratic's, an MLP's or the lockstep group's float64 arrays may
also take 2**62, which no NumPy array can index; the keys that only count
or seed may also take int64's largest value. Whatever a config holds,
`run` exits 0, 1 or 2 without raising, a run that exits 1 names the key at
fault, a run that exits 0 writes only finite numbers, and a config run
twice writes the same bytes.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedagm.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from fedagm.local import VARIANTS
from fedagm.orchestrator import SCHEDULE_KINDS
from fedagm.partition import BALANCES, SCHEMES
from fedagm.sampling import MODES
from fedagm.serialize import load_model
from fedagm.server import _NAMED, CALIBRATION_SCHEMES, KINDS

floats = st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 1e300])


def counts(lo, hi):
    """A small count, or int64's largest value for a key that sizes nothing."""
    return st.one_of(st.integers(lo, hi), st.just(2**63 - 1))


def sizes(lo, hi):
    """A small size, or 2**62: more float64 entries than NumPy can index."""
    return st.one_of(st.integers(lo, hi), st.just(2**62))


def section(required, **optional):
    return st.fixed_dictionaries(required, optional=optional)


blobs = section(
    {
        "source": st.just("blobs"),
        "n": st.integers(1, 24),
        "num_classes": st.integers(2, 3),
        "num_features": st.integers(1, 3),
    },
    center_spread=floats,
    noise=floats,
)
quadratic = section(
    {
        "kind": st.just("quadratic"),
        "num_clients": sizes(1, 4),
        "dim": sizes(1, 3),
        "heterogeneity": floats,
    },
    curvature_range=st.lists(floats, min_size=2, max_size=2),
    samples_per_client=sizes(1, 6),
    anchor_noise=floats,
    weight_decay=floats,
    weights=st.sampled_from(["equal", "dirichlet"]),
)
data_task = section(
    {"kind": st.sampled_from(["logistic", "mlp"]), "dataset": blobs, "hidden": sizes(1, 3)},
    weight_decay=floats,
    test_fraction=floats,
)
calibration = section(
    {"scheme": st.sampled_from(CALIBRATION_SCHEMES)}, eps=floats, p=floats, beta=floats
)
server_keys = dict(beta1=floats, beta2=floats, calibration=calibration)
server = st.one_of(
    section({"name": st.sampled_from(sorted(_NAMED)), "eta": floats}, **server_keys),
    section({"kind": st.sampled_from(KINDS), "eta": floats}, **server_keys),
)
schedule = section(
    {"kind": st.sampled_from(SCHEDULE_KINDS)},
    decay=floats,
    fractions=st.lists(floats, max_size=2),
    patience=counts(1, 2),
    factor=floats,
)
configs = section(
    {
        "rounds": st.integers(1, 3),
        "task": st.one_of(quadratic, data_task),
        "partition": section(
            {
                "scheme": st.sampled_from(SCHEMES),
                "num_clients": st.integers(1, 4),
                "alpha": floats,
                "classes_per_client": counts(1, 3),
            },
            balance=st.sampled_from(BALANCES),
        ),
        "local": section(
            {"steps": st.integers(1, 3), "gamma": floats, "batch_size": counts(1, 4)},
            variant=st.sampled_from(VARIANTS),
            prox_mu=floats,
            epoch_mode=st.booleans(),
        ),
        "sampling": section({"clients_per_round": sizes(1, 4)}, mode=st.sampled_from(MODES)),
        "server": server,
    },
    seed=counts(0, 3),
    eval_every=counts(1, 2),
    schedules=section({}, gamma=schedule, eta=schedule),
)


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _assert_finite(value, where):
    if isinstance(value, dict):
        for key, item in value.items():
            _assert_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _assert_finite(item, f"{where}[{i}]")
    elif isinstance(value, float):
        assert math.isfinite(value), where


def _assert_outputs_finite(out):
    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
    clients = lines[0].split(",").index("clients")
    for row in lines[1:]:
        cells = row.split(",")
        assert all(math.isfinite(float(c)) for i, c in enumerate(cells) if i != clients), row
    for line in open(os.path.join(out, "metrics.jsonl")).read().splitlines():
        _assert_finite(json.loads(line, parse_constant=_reject), "metrics.jsonl")
    # json reads 1e999 as inf, which _assert_finite catches
    report = json.loads(open(os.path.join(out, "bound_report.json")).read(), parse_constant=_reject)
    _assert_finite(report, "bound_report.json")
    assert np.isfinite(load_model(os.path.join(out, "model.bin"))).all()


def _written(out) -> dict:
    if not os.path.isdir(out):
        return {}
    names = sorted(os.listdir(out))
    return {name: open(os.path.join(out, name), "rb").read() for name in names}


# The edge values overflow and underflow on purpose.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(obj=configs)
def test_any_config_exits_cleanly_with_finite_reproducible_output(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        runs = []
        for name in ("first", "second"):
            out = os.path.join(tmp, name)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", path, "--out", out])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
            if code == EXIT_CONFIG:
                # config error: <section>.<key>, as in task.curvature_range
                message = err.getvalue()
                assert re.match(r"config error: \w+\.\w+[\w.\[\]]*: ", message), message
            runs.append((code, _written(out)))
        assert runs[0] == runs[1]
        if runs[0][0] == EXIT_OK:
            _assert_outputs_finite(os.path.join(tmp, "first"))
