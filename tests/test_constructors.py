"""Constructors take the settings a caller decides, never an object's internal state."""

from __future__ import annotations

import dataclasses
import math
from collections import deque

import numpy as np
import pytest

from pdtcoord.analytics import ClusterSimConfig
from pdtcoord.balancer import BalancerState, run_balancer
from pdtcoord.decode import DecodeConfig
from pdtcoord.errors import ConfigError
from pdtcoord.memmodel import PageTable
from pdtcoord.snc import GateState


def test_constructors_take_only_settings():
    settings = {
        GateState: (
            "g_min",
            "g_max",
            "warmup_tokens",
            "tau_lipschitz",
            "flicker_std",
            "flicker_window",
            "lipschitz_estimate",
        ),
        PageTable: ("page_size_tokens", "capacity_pages", "t_page"),
        BalancerState: ("initial_loss_ce", "initial_loss_kl"),
    }
    for cls, names in settings.items():
        assert tuple(f.name for f in dataclasses.fields(cls) if f.init) == names

    internal = [
        (GateState, (), "tokens_since_note", 0),
        (GateState, (), "gate_window", deque()),
        (GateState, (), "note_change_window", deque()),
        (PageTable, (), "resident", {}),
        (PageTable, (), "evicted", set()),
        (PageTable, (), "grid_offset", 16),
        (BalancerState, (1.0, 1.0), "lambda_kl", 0.5),
        (BalancerState, (1.0, 1.0), "weight_history", deque()),
    ]
    for cls, args, name, value in internal:
        with pytest.raises(TypeError):
            cls(*args, **{name: value})

    state = BalancerState(2.0, 3.0)
    assert (state.initial_loss_ce, state.initial_loss_kl, state.lambda_kl) == (2.0, 3.0, 0.5)
    assert state.weight_history.maxlen == 64 and not state.weight_history
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            BalancerState(bad, 1.0)
        with pytest.raises(ConfigError):
            BalancerState(1.0, bad)


def _run_balancer(**kwargs):
    return run_balancer([], **kwargs)


# (constructor, one bad setting): each is refused with ConfigError naming the setting.
REFUSALS = [
    (ClusterSimConfig, {"trials": 2.5}),
    (ClusterSimConfig, {"horizon_l": True}),
    (ClusterSimConfig, {"seed": 2.0}),
    (ClusterSimConfig, {"rho_c": "0.5"}),
    (ClusterSimConfig, {"q_token": None}),
    (PageTable, {"page_size_tokens": 2.5}),
    (PageTable, {"capacity_pages": 4.0}),
    (PageTable, {"t_page": True}),
    (PageTable, {"t_page": math.nan}),
    (GateState, {"g_min": True, "g_max": True}),
    (GateState, {"flicker_std": "x"}),
    (GateState, {"tau_lipschitz": math.nan}),
    (GateState, {"tau_lipschitz": 0.0}),
    (GateState, {"lipschitz_estimate": math.inf}),
    (GateState, {"warmup_tokens": 1.5}),
    (_run_balancer, {"update_interval": 1.5}),
    (_run_balancer, {"update_interval": True}),
    (DecodeConfig, {"cadence": "deterministic"}),
    (DecodeConfig, {"masked_strides": 3}),
    # Refused at construction, not first by the bus or the gate inside run_parallel.
    (DecodeConfig, {"bus_capacity": 0}),
    (DecodeConfig, {"bus_retain_k": 0}),
    (DecodeConfig, {"warmup_tokens": 0}),
    (DecodeConfig, {"bus_capacity": -3}),
]


@pytest.mark.parametrize(
    ("build", "kwargs"), REFUSALS, ids=[f"{build.__name__}-{'-'.join(kw)}-{list(kw.values())[-1]!r}" for build, kw in REFUSALS]
)
def test_a_setting_of_the_wrong_type_or_range_is_refused(build, kwargs):
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        build(**kwargs)


def test_numpy_settings_are_stored_as_python_numbers():
    sim = ClusterSimConfig(horizon_l=np.int64(8), trials=np.int32(20), seed=np.uint8(3), rho_c=np.float32(0.5))
    table = PageTable(page_size_tokens=np.int64(16), capacity_pages=np.int16(4), t_page=np.float32(2.0))
    gate = GateState(g_min=np.float64(0.1), g_max=1, tau_lipschitz=np.int64(40))
    values = [sim.horizon_l, sim.trials, sim.seed, sim.rho_c, table.page_size_tokens, table.capacity_pages, table.t_page]
    values += [gate.g_min, gate.g_max, gate.tau_lipschitz]
    assert [type(v) for v in values] == [int, int, int, float, int, int, float, float, float, float]
