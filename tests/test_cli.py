"""Command-line round trips, output formats, and exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from pdtcoord import cli
from pdtcoord.analytics import ClusterSimConfig, format_sim_transcript, simulate_clustered_rollback
from pdtcoord.cadence import CadenceConfig
from pdtcoord.cli import build_parser, main
from pdtcoord.decode import DecodeConfig, run_parallel
from pdtcoord.memmodel import MIB, MemoryConfig
from pdtcoord.replay import SynthSpec, read_artifact, synthesize_artifact, write_artifact


@pytest.fixture()
def artifact_path(tmp_path):
    path = tmp_path / "test.pdtr"
    code = main(
        [
            "synth",
            "--out",
            str(path),
            "--streams",
            "2",
            "--length",
            "32",
            "--vocab",
            "11",
            "--d",
            "8",
            "--d-note",
            "4",
            "--seed",
            "21",
        ]
    )
    assert code == 0
    return path


def test_synth_reports_shape(tmp_path, capsys):
    path = tmp_path / "a.pdtr"
    assert main(["synth", "--out", str(path), "--seed", "3", "--plant", "0:5"]) == 0
    out = capsys.readouterr().out
    assert f"wrote {path}" in out
    assert "streams=3" in out
    assert "seed=3" in out
    assert path.exists()


def test_synth_defaults_are_synth_spec_defaults(tmp_path):
    path = tmp_path / "cli.pdtr"
    assert main(["synth", "--out", str(path), "--seed", "0"]) == 0
    api = tmp_path / "api.pdtr"
    write_artifact(synthesize_artifact(SynthSpec(seed=0)), api)
    assert path.read_bytes() == api.read_bytes()


def test_synth_rejects_bad_shape(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "x.pdtr"), "--streams", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
def test_synth_rejects_non_finite_gamma(tmp_path, capsys, gamma):
    path = tmp_path / "x.pdtr"
    assert main(["synth", "--out", str(path), f"--gamma={gamma}"]) == 2
    assert "gamma must be finite" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--streams", "4097", "--length", "1", "--vocab", "2", "--d", "4", "--d-note", "1"], "n_streams=4097"),
        (["--seed", "-1"], "seed=-1"),
        (["--seed", str(1 << 64)], f"seed={1 << 64}"),
    ],
)
def test_synth_rejects_what_the_format_cannot_hold(tmp_path, capsys, flags, message):
    # The reader would refuse these files (or they cannot be packed at all), so none is written.
    path = tmp_path / "x.pdtr"
    assert main(["synth", "--out", str(path), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_replay_rejects_non_finite_noise_scale(artifact_path, capsys, scale):
    assert main(["replay", "--artifact", str(artifact_path), "--noise-scale", scale]) == 2
    assert "note_noise_scale" in capsys.readouterr().err


def test_replay_round_trip(artifact_path, tmp_path, capsys):
    trace_path = tmp_path / "run.trace"
    code = main(
        [
            "replay",
            "--artifact",
            str(artifact_path),
            "--out",
            str(trace_path),
            "--stride-b",
            "8",
            "--horizon-l",
            "8",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "stream 0: committed" in out
    assert "trace_hash: " in out
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "PDTTRACE v1"
    assert lines[-1].startswith("SUMMARY ")


# Per command: the function handed the config it builds, that config's class,
# and the flags that take no config field.
BUILDERS = {
    "synth": ("synthesize_artifact", SynthSpec, ["--out", "unused.pdtr"]),
    "replay": ("run_parallel", DecodeConfig, ["--artifact", "unused.pdtr"]),
    "clustered-sim": ("simulate_clustered_rollback", ClusterSimConfig, []),
}
# For every field flag: one non-default value as typed, and as the field holds it.
FLAG_VALUES = {
    "synth": {
        "n_streams": ("2", 2),
        "length": ("24", 24),
        "vocab_size": ("11", 11),
        "d": ("8", 8),
        "d_note": ("4", 4),
        "gamma": ("-3.5", -3.5),
        "tau": ("0.45", 0.45),
        "seed": ("7", 7),
        "planted_divergences": ("1:5", ((1, 5),)),
    },
    "replay": {
        "stride_b": ("8", 8),
        "horizon_l": ("64", 64),
        "tau": ("0.3", 0.3),
        "read_delta": ("1", 1),
        "mode": ("stochastic", "stochastic"),
        "interval_m": ("7", 7),
        "gate_override": ("0.5", 0.5),
        "regen_mode": ("reconsume", "reconsume"),
        "agreement_mode": ("live", "live"),
        "note_noise_scale": ("0.5", 0.5),
        "seed": ("99", 99),
    },
    "clustered-sim": {
        "horizon_l": ("16", 16),
        "rho_c": ("0.25", 0.25),
        "q_token": ("0.01", 0.01),
        "trials": ("500", 500),
        "seed": ("3", 3),
    },
}
CADENCE_FIELDS = {f.name for f in dataclasses.fields(CadenceConfig)}


class Built(Exception):
    """Carries a command's config out of main before anything uses it."""


def built_config(monkeypatch, command, flags):
    def capture(*args):
        raise Built(args[-1])

    builder, _, required = BUILDERS[command]
    monkeypatch.setattr(cli, "read_artifact", lambda path: None)
    monkeypatch.setattr(cli, builder, capture)
    with pytest.raises(Built) as built:
        main([command, *required, *flags])
    return built.value.args[0]


def with_field(config, name, value):
    # replay's cadence flags set fields of DecodeConfig.cadence.
    if isinstance(config, DecodeConfig) and name in CADENCE_FIELDS:
        return dataclasses.replace(config, cadence=dataclasses.replace(config.cadence, **{name: value}))
    return dataclasses.replace(config, **{name: value})


@pytest.mark.parametrize("command", list(BUILDERS))
def test_every_flag_sets_the_config_field_it_names(monkeypatch, command):
    default = built_config(monkeypatch, command, [])
    assert default == BUILDERS[command][1]()
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [a for a in sub.choices[command]._actions if a.dest not in ("help", "out", "artifact")]
    # A new flag needs a value here, so where it lands is checked too.
    assert sorted(a.dest for a in options) == sorted(FLAG_VALUES[command])
    for action in options:
        text, value = FLAG_VALUES[command][action.dest]
        expected = with_field(default, action.dest, value)
        assert expected != default, action.dest
        assert built_config(monkeypatch, command, [action.option_strings[0], text]) == expected, action.dest


def test_an_internal_key_error_is_not_reported_as_bad_input(monkeypatch):
    # No flag or file can raise KeyError, so one is a fault to surface, not exit 2.
    def broken(config):
        raise KeyError("horizon_l")

    monkeypatch.setattr(cli, "simulate_clustered_rollback", broken)
    with pytest.raises(KeyError):
        main(["clustered-sim"])


def test_replay_missing_artifact_is_runtime_error(tmp_path, capsys):
    code = main(["replay", "--artifact", str(tmp_path / "absent.pdtr")])
    assert code == 1
    assert "runtime error:" in capsys.readouterr().err


def test_replay_corrupt_artifact_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.pdtr"
    bad.write_bytes(b"NOTPDTR" + b"\x00" * 64)
    assert main(["replay", "--artifact", str(bad)]) == 2


def test_clustered_sim_transcript(capsys):
    assert main(["clustered-sim"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "--- Clustered Rollback Simulation ---"
    assert "L=32, rho=0.5, q_token=0.0033" in out
    assert "(Theo: 0.1004)" in out


def test_clustered_sim_defaults_are_cluster_sim_config_defaults(capsys):
    assert main(["clustered-sim"]) == 0
    expected = format_sim_transcript(simulate_clustered_rollback(ClusterSimConfig()))
    assert capsys.readouterr().out == expected + "\n"


def test_clustered_sim_flag_aliases(capsys):
    assert main(["clustered-sim", "--L", "16", "--q_token", "0.01", "--trials", "500"]) == 0
    out = capsys.readouterr().out
    assert "L=16" in out
    assert main(["clustered-sim", "--horizon-l", "16", "--q-token", "0.01", "--trials", "500"]) == 0


def test_clustered_sim_infeasible_chain(capsys):
    assert main(["clustered-sim", "--q-token", "0.9", "--rho", "0.0"]) == 2


def test_clustered_sim_refuses_one_trial(capsys):
    assert main(["clustered-sim", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials must be >= 2" in captured.err


def write_mem_config(tmp_path, **extra):
    cfg = {
        "d_model": 4096,
        "n_heads": 32,
        "n_layers": 32,
        "bytes_per_elem": 2,
        "n_kv_self": 1,
        "n_kv_bus": 1,
        "tokens_per_stream": [2048, 2048, 2048],
        "bus_tokens": 2560,
        "cross_layers": 8,
    }
    cfg.update(extra)
    path = tmp_path / "mem.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_memcalc_exact_report(tmp_path, capsys):
    path = write_mem_config(tmp_path)
    assert main(["memcalc", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "per_token_per_layer:  512 B" in out
    assert "per_token_all_layers: 16384 B (16 KiB)" in out
    assert "surface_total:        100663296 B (96 MiB)" in out
    assert "bus_total:            10485760 B (10 MiB)" in out
    assert "grand_total:          111149056 B (106 MiB)" in out
    assert "pressure:" not in out


def test_memcalc_pressure_line(tmp_path, capsys):
    # Peak 106 MiB against 130 MiB budget: fits, but above 85% of the
    # 110 MiB left after weights.
    path = write_mem_config(
        tmp_path, gpu_budget_bytes=130 * 1024 * 1024, weights_bytes=20 * 1024 * 1024
    )
    assert main(["memcalc", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pressure: warn" in out


def test_memcalc_rejects_unknown_keys(tmp_path, capsys):
    # d_head is d_model // n_heads, so it is not a key either.
    for key in ("page_size", "d_head"):
        path = write_mem_config(tmp_path, **{key: 128})
        assert main(["memcalc", "--config", str(path)]) == 2
        assert "unknown memcalc config keys" in capsys.readouterr().err


def test_memcalc_names_missing_keys(tmp_path, capsys):
    path = tmp_path / "mem.json"
    path.write_text(json.dumps({"d_model": 4096}), encoding="utf-8")
    assert main(["memcalc", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "missing memcalc config keys" in err
    assert "'n_heads'" in err and "'cross_layers'" in err
    assert "'weights_bytes'" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("tokens_per_stream", 5),
        ("tokens_per_stream", [2048, 2048.0]),
        ("d_model", "4096"),
        ("d_model", 4096.0),
        ("bytes_per_elem", True),
        ("gpu_budget_bytes", 1.5e9),
        # Byte counts are integers too, and none may be negative.
        ("weights_bytes", -1000000000000),
        ("workspace_bytes", -1),
        ("gpu_budget_bytes", -1),
    ],
)
def test_memcalc_rejects_non_integer_sizes(tmp_path, capsys, key, value):
    path = write_mem_config(tmp_path, **{key: value})
    assert main(["memcalc", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_memcalc_refuses_m_peak_without_a_budget(tmp_path, capsys):
    # Without a budget there is no pressure check for the peak to override.
    path = write_mem_config(tmp_path)
    for peak in ("5", "-5"):
        assert main(["memcalc", "--config", str(path), "--m-peak", peak]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--m-peak" in err


def test_memcalc_refuses_a_negative_m_peak_before_any_output(tmp_path, capsys):
    path = write_mem_config(tmp_path, gpu_budget_bytes=200 * MIB)
    assert main(["memcalc", "--config", str(path), "--m-peak", "-5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--m-peak" in err


# A valid value, other than the base run's, for every MemoryConfig field.
MEMCALC_ALTERNATIVES = {
    "d_model": 2048,
    "n_heads": 64,
    "n_layers": 16,
    "bytes_per_elem": 1,
    "n_kv_self": 2,
    "n_kv_bus": 2,
    "tokens_per_stream": (1024, 2048, 2048),
    "bus_tokens": 1280,
    "cross_layers": 4,
    "weights_bytes": 10 * MIB,
    "workspace_bytes": 10 * MIB,
    "gpu_budget_bytes": 300 * MIB,
}


def test_every_memory_config_field_changes_memcalc_output(tmp_path, capsys):
    # The base run is README's memcfg.json with a budget, so the pressure line prints.
    def memcalc(**extra):
        path = write_mem_config(tmp_path, **{"gpu_budget_bytes": 200 * MIB, **extra})
        assert main(["memcalc", "--config", str(path)]) == 0
        return capsys.readouterr().out

    base = memcalc()
    for f in dataclasses.fields(MemoryConfig):
        assert f.name in MEMCALC_ALTERNATIVES, f"MemoryConfig.{f.name} needs a value in MEMCALC_ALTERNATIVES"
        assert memcalc(**{f.name: MEMCALC_ALTERNATIVES[f.name]}) != base, f.name


def test_memcalc_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "mem.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["memcalc", "--config", str(path)]) == 2


def test_sweep_cadence_csv(artifact_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--kind",
            "cadence",
            "--artifact",
            str(artifact_path),
            "--out",
            str(out),
            "--intervals",
            "2,4",
            "--strides",
            "8",
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "mode,interval_m,stride_b,tokens,notes,rollbacks,trace_hash"
    assert len(lines) == 1 + 2 * 2 * 1


def test_sweep_noise_stress_stdout(artifact_path, capsys):
    code = main(
        [
            "sweep",
            "--kind",
            "noise-stress",
            "--artifact",
            str(artifact_path),
            "--scales",
            "0.0,0.3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("noise_scale,tokens,notes,rollbacks")
    assert len(out.splitlines()) == 3


def test_sweep_mask_ablation(artifact_path, capsys):
    code = main(
        [
            "sweep",
            "--kind",
            "mask-ablation",
            "--artifact",
            str(artifact_path),
            "--masked-strides",
            "0,1",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("masked_stride,baseline_margin")
    assert len(lines) == 3


def test_sweep_mask_ablation_rejects_strides_outside_the_run(artifact_path, capsys):
    code = main(
        ["sweep", "--kind", "mask-ablation", "--artifact", str(artifact_path), "--masked-strides=-3,99,1"]
    )
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and "outside" in err


def test_sweep_rejects_malformed_list(artifact_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--kind", "cadence", "--artifact", str(artifact_path), "--intervals", "a,b"])
    assert exc.value.code == 2


def test_balance_replays_log(tmp_path, capsys):
    log = tmp_path / "grad.log"
    log.write_text(
        "# step g_ce g_kl loss_ce loss_kl\n"
        "0 1.0 1.0 1.0 1.0\n"
        "1 2.0 1.0 1.0 1.0\n"
        "2 2.0 1.0 1.0 1.0\n",
        encoding="utf-8",
    )
    assert main(["balance", "--log", str(log)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("step 0: lambda_ce=0.5000 lambda_kl=0.5000")
    assert "lambda_kl=0.5000" not in lines[2]


def test_balance_rejects_bad_log(tmp_path, capsys):
    log = tmp_path / "grad.log"
    log.write_text("0 1.0 1.0 1.0\n", encoding="utf-8")
    assert main(["balance", "--log", str(log)]) == 2


def test_balance_refuses_unusable_values_and_names_the_line(tmp_path, capsys):
    # Nothing is printed, and the error names the line (or the initial loss) at fault.
    log = tmp_path / "grad.log"
    cases = [
        ("0 1.0 1.0 inf 1.0\n1 1 1 1 1\n2 1 1 1 1\n", "line 1: "),
        ("0 1 1 1 1\n1 1.0 nan 1.0 1.0\n", "line 2: "),
        ("0 1 1 1 1\n# comment\n2 1 1 1 -0.5\n", "line 3: "),
        ("0 1 1 1 1\n1 0 1 1 1\n", "line 2: "),
        ("0 1 1 0 1\n1 1 1 1 1\n", "initial_loss_ce=0.0"),
    ]
    for text, named in cases:
        log.write_text(text, encoding="utf-8")
        assert main(["balance", "--log", str(log)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and named in err


def test_cli_reads_no_seed_from_the_environment(artifact_path, tmp_path, capsys, monkeypatch):
    # A trace is a function of the artifact and the flags alone.
    monkeypatch.setenv("PDT_SEED", "7")
    assert main(["synth", "--out", str(tmp_path / "env.pdtr")]) == 0
    assert "seed=0" in capsys.readouterr().out
    assert main(["replay", "--artifact", str(artifact_path)]) == 0
    expected = run_parallel(read_artifact(artifact_path), DecodeConfig()).trace_hash()
    assert capsys.readouterr().out.splitlines()[-1] == f"trace_hash: {expected}"
