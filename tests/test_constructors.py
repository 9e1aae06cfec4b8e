"""Constructors take the settings a caller decides, never an object's internal state."""

from __future__ import annotations

import dataclasses
import math
from collections import deque

import pytest

from pdtcoord.balancer import BalancerState
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
        (PageTable, (), "pages", {}),
        (PageTable, (), "clock", 0),
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
