"""Command-line front end.

Subcommands: synth (write a synthetic replay artifact), replay (decode an
artifact and print/write the trace), clustered-sim (stride error statistics),
memcalc (KV budget arithmetic from a JSON config), sweep (cadence, mask
ablation, or noise stress grids as CSV), and balance (feed a gradient log
through the loss balancer).

A command without --seed uses its per-command default.  Exit codes: 0
success, 2 invalid input or configuration, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from typing import Sequence, get_args

from .analytics import ClusterSimConfig, format_sim_transcript, simulate_clustered_rollback
from .balancer import read_gradient_log, run_balancer
from .cadence import CadenceConfig, CadenceMode
from .decode import AgreementMode, DecodeConfig, RegenMode, run_parallel
from .errors import ArtifactFormatError, ConfigError, PdtError, ShapeError
from .memmodel import KIB, MIB, MemoryConfig, kv_budget, pressure_check
from .replay import SynthSpec, read_artifact, synthesize_artifact, write_artifact
from .sweeps import cadence_sweep, mask_ablation, noise_stress

_VALIDATION_ERRORS = (ConfigError, ShapeError, ArtifactFormatError, ValueError, KeyError)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _plant(text: str) -> tuple[int, int]:
    try:
        stream, pos = text.split(":")
        return int(stream), int(pos)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected STREAM:POS, got {text!r}") from exc


def _bytes_human(n: int) -> str:
    if n % MIB == 0:
        return f"{n} B ({n // MIB} MiB)"
    if n % KIB == 0:
        return f"{n} B ({n // KIB} KiB)"
    return f"{n} B"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdtcoord")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a deterministic synthetic replay artifact")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--streams", type=int, default=SynthSpec.n_streams)
    p_synth.add_argument("--length", type=int, default=SynthSpec.length)
    p_synth.add_argument("--vocab", type=int, default=SynthSpec.vocab_size)
    p_synth.add_argument("--d", type=int, default=SynthSpec.d)
    p_synth.add_argument("--d-note", type=int, default=SynthSpec.d_note)
    p_synth.add_argument("--gamma", type=float, default=SynthSpec.gamma)
    p_synth.add_argument("--tau", type=float, default=SynthSpec.tau)
    p_synth.add_argument("--seed", type=int, default=SynthSpec.seed)
    p_synth.add_argument(
        "--plant",
        type=_plant,
        action="append",
        default=[],
        metavar="STREAM:POS",
        help="force the agreement score below tau at this frame (repeatable)",
    )

    p_replay = sub.add_parser("replay", help="decode an artifact and report the trace")
    p_replay.add_argument("--artifact", required=True)
    p_replay.add_argument("--out", default=None, help="write the full trace to this path")
    p_replay.add_argument("--stride-b", type=int, default=DecodeConfig.stride_b)
    p_replay.add_argument("--horizon-l", type=int, default=DecodeConfig.horizon_l)
    p_replay.add_argument("--tau", type=float, default=DecodeConfig.tau)
    p_replay.add_argument("--read-delta", type=int, default=DecodeConfig.read_delta)
    p_replay.add_argument("--cadence-mode", choices=get_args(CadenceMode), default=CadenceConfig.mode)
    p_replay.add_argument("--interval-m", type=int, default=CadenceConfig.interval_m)
    p_replay.add_argument("--gate-override", type=float, default=DecodeConfig.gate_override)
    p_replay.add_argument("--regen-mode", choices=get_args(RegenMode), default=DecodeConfig.regen_mode)
    p_replay.add_argument("--agreement-mode", choices=get_args(AgreementMode), default=DecodeConfig.agreement_mode)
    p_replay.add_argument("--noise-scale", type=float, default=DecodeConfig.note_noise_scale)
    p_replay.add_argument("--seed", type=int, default=DecodeConfig.seed)

    p_sim = sub.add_parser("clustered-sim", help="stride failure statistics for bursty errors")
    p_sim.add_argument("--L", "--horizon-l", dest="horizon_l", type=int, default=ClusterSimConfig.horizon_l)
    p_sim.add_argument("--rho", type=float, default=ClusterSimConfig.rho_c)
    p_sim.add_argument("--q-token", "--q_token", dest="q_token", type=float, default=ClusterSimConfig.q_token)
    p_sim.add_argument("--trials", type=int, default=ClusterSimConfig.trials)
    p_sim.add_argument("--seed", type=int, default=ClusterSimConfig.seed)

    p_mem = sub.add_parser("memcalc", help="exact KV budget from a JSON config")
    p_mem.add_argument("--config", required=True, help="JSON file whose keys mirror MemoryConfig fields")
    p_mem.add_argument("--m-peak", type=int, default=None, help="override peak bytes for the pressure check")

    p_sweep = sub.add_parser("sweep", help="run a configuration grid and emit CSV")
    p_sweep.add_argument("--kind", choices=["cadence", "mask-ablation", "noise-stress"], required=True)
    p_sweep.add_argument("--artifact", required=True)
    p_sweep.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_sweep.add_argument("--intervals", type=_int_list, default=(2, 4, 8))
    p_sweep.add_argument("--strides", type=_int_list, default=(8, 16))
    p_sweep.add_argument("--scales", type=_float_list, default=(0.0, 0.05, 0.2))
    p_sweep.add_argument("--masked-strides", type=_int_list, default=None)
    p_sweep.add_argument("--seed", type=int, default=DecodeConfig.seed)

    p_bal = sub.add_parser("balance", help="replay a gradient log through the loss balancer")
    p_bal.add_argument("--log", required=True, help="text log: step g_ce g_kl loss_ce loss_kl")
    p_bal.add_argument("--update-interval", type=int, default=1)
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        n_streams=args.streams,
        length=args.length,
        vocab_size=args.vocab,
        d=args.d,
        d_note=args.d_note,
        gamma=args.gamma,
        tau=args.tau,
        seed=args.seed,
        planted_divergences=tuple(args.plant),
    )
    artifact = synthesize_artifact(spec)
    write_artifact(artifact, args.out)
    print(f"wrote {args.out}: streams={artifact.n_streams} length={spec.length} "
          f"vocab={artifact.vocab_size} d={artifact.d} d_note={artifact.d_note} seed={artifact.seed}")
    return 0


def _decode_config(args: argparse.Namespace) -> DecodeConfig:
    return DecodeConfig(
        stride_b=args.stride_b,
        horizon_l=args.horizon_l,
        tau=args.tau,
        read_delta=args.read_delta,
        cadence=CadenceConfig(mode=args.cadence_mode, interval_m=args.interval_m),
        gate_override=args.gate_override,
        agreement_mode=args.agreement_mode,
        regen_mode=args.regen_mode,
        note_noise_scale=args.noise_scale,
        seed=args.seed,
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    artifact = read_artifact(args.artifact)
    trace = run_parallel(artifact, _decode_config(args))
    if args.out:
        trace.write(args.out)
    for k, log in enumerate(trace.token_logs):
        print(f"stream {k}: committed {trace.committed[k]} of {len(log)} tokens")
    print(f"rollbacks: {len(trace.rollback_events())}  forced_commits: {trace.forced_commits}")
    print(f"trace_hash: {trace.trace_hash()}")
    return 0


def _cmd_clustered_sim(args: argparse.Namespace) -> int:
    config = ClusterSimConfig(
        horizon_l=args.horizon_l,
        rho_c=args.rho,
        q_token=args.q_token,
        trials=args.trials,
        seed=args.seed,
    )
    print(format_sim_transcript(simulate_clustered_rollback(config)))
    return 0


def _cmd_memcalc(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("memcalc config must be a JSON object")
    known = dataclasses.fields(MemoryConfig)
    unknown = set(raw) - {f.name for f in known}
    if unknown:
        raise ConfigError(f"unknown memcalc config keys: {sorted(unknown)}")
    missing = [f.name for f in known if f.default is dataclasses.MISSING and f.name not in raw]
    if missing:
        raise ConfigError(f"missing memcalc config keys: {missing}")
    config = MemoryConfig(**raw)
    if args.m_peak is not None and config.gpu_budget_bytes == 0:
        raise ConfigError("--m-peak needs a positive gpu_budget_bytes in the config")
    if args.m_peak is not None and args.m_peak < 0:
        raise ConfigError(f"--m-peak must be non-negative, got {args.m_peak}")
    budget = kv_budget(config)
    print(f"per_token_per_layer:  {_bytes_human(budget.per_token_per_layer)}")
    print(f"per_token_all_layers: {_bytes_human(budget.per_token_all_layers)}")
    print(f"surface_total:        {_bytes_human(budget.surface_total)}")
    print(f"bus_total:            {_bytes_human(budget.bus_total)}")
    print(f"grand_total:          {_bytes_human(budget.grand_total)}")
    if config.gpu_budget_bytes > 0:
        report = pressure_check(config, args.m_peak)
        print(f"pressure: {report.status} (peak {_bytes_human(report.m_peak)}, "
              f"headroom {report.headroom} B, utilization {report.utilization:.3f})")
    return 0


def _write_rows(rows: Sequence[object], out_path: str | None) -> None:
    if not rows:
        raise ConfigError("sweep produced no rows")
    fieldnames = [f.name for f in dataclasses.fields(rows[0])]
    fh = open(out_path, "w", newline="", encoding="utf-8") if out_path else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(dataclasses.asdict(row))
    finally:
        if out_path:
            fh.close()


def _cmd_sweep(args: argparse.Namespace) -> int:
    artifact = read_artifact(args.artifact)
    config = DecodeConfig(stride_b=8, horizon_l=32, seed=args.seed)
    if args.kind == "cadence":
        rows: Sequence[object] = cadence_sweep(artifact, config, args.intervals, args.strides)
    elif args.kind == "mask-ablation":
        rows = mask_ablation(artifact, config, args.masked_strides)
    else:
        rows = noise_stress(artifact, dataclasses.replace(config, agreement_mode="live"), args.scales)
    _write_rows(rows, args.out)
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    with open(args.log, "r", encoding="utf-8") as fh:
        records = read_gradient_log(fh)
    for report in run_balancer(records, update_interval=args.update_interval):
        flags = ",".join(f.name for f in report.flags) or "-"
        print(f"step {report.step}: lambda_ce={report.lambda_ce:.4f} "
              f"lambda_kl={report.lambda_kl:.4f} flags={flags}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "replay": _cmd_replay,
    "clustered-sim": _cmd_clustered_sim,
    "memcalc": _cmd_memcalc,
    "sweep": _cmd_sweep,
    "balance": _cmd_balance,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PdtError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
