"""The benchmark's own trace hashes, pinned so that a change to the decoder
that moves a perfbench trace fails here, not only in a benchmark run.

perfbench/workloads.py builds its artifacts from a seed with numpy and the
public constructors.  This test imports it read-only and decodes seed 1's
first four tiny_batch jobs, the 18 sweep_grid points, in the order that
perfbench's cadence_sweep reference decodes them, and the long_bus run, the
one workload that fills its 2,560-row bus and compacts.  The hashes were
taken from the decoder before the bus stacked rows per stream.  long_bus's
moved when each barrier's notes began to be published as one batch,
compacted at most once: 6 of its 16,320 final tokens changed.  Trace v2
moved every hash; the v1 pins are checked against each decode's lines
rewritten in v1 form, beside the v2 pins.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from test_golden_hashes import lines_hash, v1_lines

from pdtcoord.cadence import CadenceConfig
from pdtcoord.decode import run_parallel

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

TINY_BATCH_SEED_1 = [
    "a3812250f3c7ffee142afe97bb8df4908a1284940199d601ebc925ee4a176fb2",
    "8ba7f83a70a31482a405e76fe9ca57e68a01e356683d4698c5cfa66c7806e5f9",
    "fc83c5d57429e8d63fab7175807ed73f7b7023e454874e30278827e60b614a68",
    "f471b5d1dfe15a3823f982de26c40b5b90fab3d3acb458992147b4759481f1a7",
]
SWEEP_GRID_SEED_1 = [
    "844b014e8364f1f4842d634e8232dc0f618d8ef041d64b459f7d37e923ec3baa",
    "265412384302d6664ec120a9db7994bf981250fefc39a0a4922328b0c4be0111",
    "e09e8a84318993c387b48594d3a675fe26fbbc5c9f818733d88c93731b866fbd",
    "1c7687e3cc27f140630fdfe69898013622bfa9f7409895987710e75ea97fb9fe",
    "6c93b82cb56b52883005105fc88289ea01f5e1185c47205024063ec84a94036c",
    "37f91bd41ea75f18ecd7ea1d450cfa7a7b19bcbbf130c54db9b692184de81249",
    "76b35a9f26a78febcbb73b96ac2342b95af59a3fa43f176fc6138075b6420457",
    "33cf9471b7c546c003c60dc04f00d475ebbc1463de2a479d5327dda3c34bce08",
    "0b0f92602fa9f20d9d33e025c3d5457faade3275f5d842d0b913cb391b8fc25e",
    "74f2e77f1765db13cdffd5f2da6391d1d56944e16de2008470ea5d3f58bf19ee",
    "89158b751a54273a1295c3cfadf2f7788859c6343e452c17d744442ba56de8e5",
    "7f025d842179e76ee5466b1b282199d945dd0f4286ca4e8f7ed7e287ba6ad938",
    "cabdc1d75f7b1a375a4c86f85ebd306691ff4a3f9d878fee59d16d8fb2474b1a",
    "a49c52dd8d88b9861c4489b530f43baed4354f73a89bc72ffbe4f2bcb65f24df",
    "bb9d8c7987bb821a63eecb70b198610d5ebfc56f0f0fdb8c507781abcfbb8783",
    "bfabc6801315297a6f28995e306ae29f84107a54e4bdfb8ab8d5065b09056066",
    "fde463ea5c343bc281e2bf1682d162cfd605e4e9b6173121df364ed83e7c1827",
    "6baf0af32db2d4d63da5789fa02b3bd77e1bf613ebb991a36e2eca92603defa1",
]

LONG_BUS_SEED_1 = "6a04b1091dc26794d5c9d8decae286e59167f59043421b065e03edde80e25daf"

# The same decodes' trace v2 hashes.
TINY_BATCH_SEED_1_V2 = [
    "47f8e6ee75a2b7b14b37eaa4149e9da5966079cedb8ad3b46c8e058acf473255",
    "8701de732e7dbbdc135211bc56f9f645f4e0537eb2c0e8c8539f1498cb9967d6",
    "a2fd342fec368a1f723395c8ec9e7fd8d9f9711f7294081c8005f6d88f9d3e62",
    "1cc6eced3c7570637833cc727ba6d887f50087a3d643a8a6492fa5a139fcc605",
]
SWEEP_GRID_SEED_1_V2 = [
    "fe737dc94f71debc88b42b715843a784073dd6ee0ad5fd40b065169a8a5cbf0c",
    "4d72a85de30eaa02262299446a62a360112bbe6b878dc3539ccd0cb339fe199d",
    "c2b4bee94dce0c9dd80318116b6e4b00f534ed71257812164b741cb1c061b758",
    "c1fbd223a0983397775201b2e6ee59e9ac6eab753add508a2b159180ef8454f9",
    "43741022755a50e476755bd22fdf899ad4bfde7121de9a9f31b7b5db2a220141",
    "2c5b9be34af20ada2c8d71b62f8cd4c7a029e3237bbb3c0ae9581304a08f57b4",
    "80bc7e9dded4377e69148da5e13515c262305a96164926bbddd2f8e3420af5d9",
    "2a39cf33048d44dc710d39baf2627897a219e8781832a69a4c1b8fab3eeea906",
    "0056d79aba9ed5675b042471cea58f7893892d9cd63bad275791bb72ff0c474c",
    "dd14e0b136ea11437a56a03ef5e839cca4d50a7b705b12116cf9ca9655a69020",
    "7bca9e58dc9dff746a7a581cd55ac4e078d79c3f0fa1bedc4b62a0a13503d23a",
    "fdc036d6a898a55d2cad4cc89c3f3bbe08c0ffdf26b4e42515a2bd5611a705fc",
    "11ff5994600c67676202f8923ccfd99fb1719d5327026e368c1e803e3ef8c544",
    "7af8eb51083a0585ee7abac468b8bc7902e82d93e1ba377ea819b6fe19d63e22",
    "3242e1958f2e4b76532955f69630835828d9cbfbf7fa36d51ebbb1f36c7e8543",
    "657857a2b4dc70f80a288c16b677c5958802a9aa81de370ee3d942c2fe859593",
    "96a8dd23ae904ec76dfa95d890763251e3cbc22007218139e8351d9c6017425c",
    "8d3e5e80dc1ac4504cfc1932ea0a9101e4f6a79781c167b633f8840cf237e100",
]
LONG_BUS_SEED_1_V2 = "50a2068fedf2e6c6f9d939e3ddcc6288a28eb4f15274541fb12830c054ea0494"


def v1_hash(trace) -> str:
    return lines_hash(v1_lines(trace.to_lines()))


@pytest.mark.parametrize("job", range(len(TINY_BATCH_SEED_1)))
def test_tiny_batch_trace_hashes(job):
    built = workloads.WORKLOADS["tiny_batch"].build(1)[job]
    trace = run_parallel(built.artifact, built.config)
    assert trace.trace_hash() == TINY_BATCH_SEED_1_V2[job]
    assert v1_hash(trace) == TINY_BATCH_SEED_1[job]


def test_sweep_grid_trace_hashes():
    (job,) = workloads.WORKLOADS["sweep_grid"].build(1)
    grid = [
        replace(
            job.config,
            cadence=CadenceConfig(mode=mode, interval_m=m),
            stride_b=b,
            horizon_l=max(job.config.horizon_l, b),
        )
        for mode in workloads.SWEEP_GRID["modes"]
        for m in workloads.SWEEP_GRID["intervals"]
        for b in workloads.SWEEP_GRID["strides"]
    ]
    traces = [run_parallel(job.artifact, config) for config in grid]
    assert [trace.trace_hash() for trace in traces] == SWEEP_GRID_SEED_1_V2
    assert [v1_hash(trace) for trace in traces] == SWEEP_GRID_SEED_1


def test_long_bus_trace_hash():
    (job,) = workloads.WORKLOADS["long_bus"].build(1)
    trace = run_parallel(job.artifact, job.config)
    assert sum(line.split()[4] == "summary" for line in trace.bus_lines) > 0
    assert trace.trace_hash() == LONG_BUS_SEED_1_V2
    assert v1_hash(trace) == LONG_BUS_SEED_1
