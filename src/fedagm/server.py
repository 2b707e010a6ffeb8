"""Server side of a round: average the client finals, fold the resulting
virtual direction into first/second momenta, and apply the calibrated
adaptive update.

The virtual direction delta_t = x_t - x_tilde_{t+1} plays the role of a
gradient; the server never sees client data or per-step gradients. Momenta
start at zero and are used without bias correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, StructuralError
from .numerics import ParamVector

KINDS = ("avg", "momentum", "adam", "amsgrad", "yogi")
CALIBRATION_SCHEMES = ("epsilon", "power", "softplus", "identity")


def calibrate(v: ParamVector, cal: Calibration) -> ParamVector:
    """Per-coordinate denominator of the adaptive stepsize; always > 0."""
    v = np.asarray(v, dtype=np.float64)
    if np.any(v < 0):
        raise NumericError("calibrate needs v >= 0 in every coordinate")
    if cal.scheme == "epsilon":
        return np.sqrt(v) + cal.eps
    if cal.scheme == "power":
        return (v + cal.eps) ** cal.p
    if cal.scheme == "softplus":
        z = cal.beta * np.sqrt(v)
        return (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))) / cal.beta
    return np.ones_like(v)


@dataclass(frozen=True)
class Calibration:
    """Monotone transform of the second momentum that floors the denominator.

    epsilon   sqrt(v) + eps            stepsize span (1/(sqrt(V)+eps), 1/eps)
    power     (v + eps)^p, p <= 1/2    compresses the span to its p-th power
    softplus  log(1 + e^(beta sqrt(v)))/beta   smooth, floored at log(2)/beta
    identity  1                        calibration off (plain averaging)
    """

    scheme: str
    eps: float = 1e-8
    p: float = 0.5
    beta: float = 50.0

    def __post_init__(self):
        if self.scheme not in CALIBRATION_SCHEMES:
            raise ParameterError(
                f"scheme must be one of {CALIBRATION_SCHEMES}, got {self.scheme!r}", key="scheme"
            )
        if self.scheme in ("epsilon", "power") and not 0 < self.eps < np.inf:
            raise ParameterError("eps must be finite and > 0", key="eps")
        if self.scheme == "power" and not 0 < self.p <= 0.5:
            raise ParameterError("power exponent must lie in (0, 1/2]", key="p")
        if self.scheme == "softplus" and not 0 < self.beta < np.inf:
            raise ParameterError("softplus beta must be finite and > 0", key="beta")
        # the stepsize band's top, 1/calibrate(0), is set by eps (beta for
        # softplus): a tiny eps overflows the quotient to inf, and a tiny beta
        # overflows calibrate(0) = log(2)/beta to inf, so the quotient is 0
        with np.errstate(over="ignore"):
            top = 1.0 / float(calibrate(np.zeros(1), self)[0])
        if not 0 < top < math.inf:
            key = "beta" if self.scheme == "softplus" else "eps"
            raise ParameterError(
                f"{key} = {getattr(self, key)!r} makes the largest stepsize 1/calibrate(0) "
                f"= {top!r}; it must be finite and > 0",
                key=key,
            )


IDENTITY = Calibration("identity")


@dataclass(frozen=True)
class ServerOptimizer:
    """Outer-loop update rule: kind + base rate + momenta + calibration."""

    kind: str
    eta: float
    beta1: float = 0.0
    beta2: float = 0.0
    calibration: Calibration = IDENTITY

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"kind must be one of {KINDS}, got {self.kind!r}", key="kind")
        if not 0 < self.eta < np.inf:
            raise ParameterError("eta must be finite and > 0", key="eta")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise ParameterError(f"{key} must lie in [0, 1)", key=key)
        if self.kind in ("avg", "momentum"):
            if self.calibration.scheme != "identity":
                raise ParameterError(
                    f"{self.kind} kind requires the identity calibration", key="calibration"
                )
            if self.beta2 != 0.0:
                raise ParameterError(f"{self.kind} kind does not use beta2; set it to 0", key="beta2")
        if self.kind == "avg" and self.beta1 != 0.0:
            raise ParameterError("avg kind requires beta1 = 0", key="beta1")


@dataclass
class ServerState:
    """Evolving server-side quantities; one instance per experiment."""

    x: ParamVector
    m: ParamVector
    v: ParamVector


def overflowed_array(state: ServerState) -> str | None:
    """The name of the first of x, m and v with a non-finite entry, or None.

    A v that overflows to inf stalls the server rather than blowing x up:
    1/calibrate(inf) is 0, so x stops moving while every log row repeats.
    """
    for name in ("x", "m", "v"):
        if not np.isfinite(getattr(state, name)).all():
            return name
    return None


def init_server_state(x0: ParamVector) -> ServerState:
    x0 = np.asarray(x0, dtype=np.float64)
    zeros = np.zeros_like(x0)
    return ServerState(x=x0.copy(), m=zeros.copy(), v=zeros.copy())


def aggregate(x_t: ParamVector, client_finals: list[ParamVector]) -> tuple[ParamVector, ParamVector]:
    """Average the client finals and form the virtual direction.

    Returns (x_tilde, delta) with x_tilde the plain mean over the S entries
    (duplicates included with multiplicity) and delta = x_t - x_tilde. The
    caller fixes the list order, which pins the summation: the bits are
    those of `mean(axis=0)` over the stacked finals. For d > 1 that mean
    adds the rows one by one, so the finals go into one accumulator in
    order, without the (S, d) copy; a one-coordinate stack is summed
    pairwise, as a 1-D array is.
    """
    if not client_finals:
        raise StructuralError("aggregate needs at least one client final")
    shape = np.shape(x_t)
    if any(np.shape(x) != shape for x in client_finals):
        raise StructuralError("client finals do not match the model dimension")
    if shape in ((), (1,)):
        x_tilde = np.asarray(client_finals, dtype=np.float64).mean(axis=0)
    else:
        x_tilde = np.array(client_finals[0], dtype=np.float64)
        for x in client_finals[1:]:
            x_tilde += x
        x_tilde /= len(client_finals)
    return x_tilde, x_t - x_tilde


def _second_momentum(state: ServerState, delta_sq: np.ndarray, opt: ServerOptimizer):
    if opt.kind == "adam":
        return opt.beta2 * state.v + (1.0 - opt.beta2) * delta_sq
    if opt.kind == "amsgrad":
        candidate = opt.beta2 * state.v + (1.0 - opt.beta2) * delta_sq
        return np.maximum(candidate, state.v)
    if opt.kind == "yogi":
        v = state.v - (1.0 - opt.beta2) * delta_sq * np.sign(state.v - delta_sq)
        return np.maximum(v, 0.0)
    return state.v


def server_step(
    state: ServerState,
    delta: ParamVector,
    opt: ServerOptimizer,
    x_tilde: ParamVector | None = None,
) -> ServerState:
    """One outer update; returns a fresh state, inputs untouched.

    With kind avg and eta = 1 the update is algebraically x_{t+1} = x_tilde;
    passing x_tilde takes that path literally so the recovery is exact at
    the bit level rather than up to roundoff.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != state.x.shape:
        raise StructuralError("delta does not match the model dimension")
    m = opt.beta1 * state.m + (1.0 - opt.beta1) * delta
    v = _second_momentum(state, delta * delta, opt)
    if opt.kind == "avg" and opt.eta == 1.0 and x_tilde is not None:
        x = np.asarray(x_tilde, dtype=np.float64).copy()
    else:
        x = state.x - (opt.eta / calibrate(v, opt.calibration)) * m
    return ServerState(x=x, m=m, v=v)


def recover_baseline(opt: ServerOptimizer) -> str:
    """Canonical method name for reporting; parameters decide, not labels."""
    if opt.calibration.scheme == "identity":
        return "FedAvg" if opt.beta1 == 0.0 else "FedMomentum"
    # avg and momentum take only the identity calibration, so kind is adaptive here
    base = {"adam": "FedAdam", "amsgrad": "FedAMSGrad", "yogi": "FedYogi"}[opt.kind]
    if opt.calibration.scheme == "power":
        return "p-" + base
    if opt.calibration.scheme == "softplus":
        return "s-" + base
    # Yogi ships with a large epsilon by convention; for the Adam family a
    # vanishing epsilon is the textbook default and gets no prefix.
    if opt.kind == "yogi" or opt.calibration.eps <= 1e-8:
        return base
    return "eps-" + base


# Calibrations are frozen, so the table is built once, not on every call.
_NAMED = {
    "FedAvg": dict(kind="avg"),
    "FedMomentum": dict(kind="momentum", beta1=0.9),
    "FedAdam": dict(kind="adam", beta1=0.9, beta2=0.99, calibration=Calibration("epsilon", eps=1e-8)),
    "eps-FedAdam": dict(kind="adam", beta1=0.9, beta2=0.99, calibration=Calibration("epsilon", eps=1e-2)),
    "p-FedAdam": dict(kind="adam", beta1=0.9, beta2=0.99, calibration=Calibration("power", eps=1e-8, p=0.25)),
    "s-FedAdam": dict(kind="adam", beta1=0.9, beta2=0.99, calibration=Calibration("softplus", beta=50.0)),
    "FedAMSGrad": dict(kind="amsgrad", beta1=0.9, beta2=0.99, calibration=Calibration("epsilon", eps=1e-8)),
    "s-FedAMSGrad": dict(kind="amsgrad", beta1=0.9, beta2=0.99, calibration=Calibration("softplus", beta=50.0)),
    "FedYogi": dict(kind="yogi", beta1=0.0, beta2=0.99, calibration=Calibration("epsilon", eps=1e-3)),
}


def named_optimizer(name: str, eta: float, **overrides) -> ServerOptimizer:
    """Construct the usual baselines by name; a convenience for grids."""
    if name not in _NAMED:
        raise ParameterError(f"unknown optimizer name {name!r}; known: {sorted(_NAMED)}", key="name")
    params = dict(_NAMED[name])
    params.update(overrides)
    return ServerOptimizer(eta=eta, **params)
