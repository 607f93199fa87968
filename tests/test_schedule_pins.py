"""Pinned modelled schedules: ``simulate()`` must keep reproducing them.

Each pin is what one ``simulate()`` of a recorded QDWH graph reported
— makespan, critical path, busy seconds per kind and per rank, stall
seconds per cause, comm messages and bytes per path — as hex floats,
plus a sha256 over every event the ``TimelineSink`` received, in
order.  The graphs are the perfbench ``small_tiles`` (160^2, nb=32,
kappa=1e4) and ``illcond_tall`` (768x384, nb=128, kappa=1e16) shapes
on 2 Summit nodes (a 2x2 grid); one run adds a fault plan (a rank
crash, transient failures, a straggler, a slow link).  A change to how the
scheduler *computes* a schedule must leave every digit here alone; a
change to the model or the graph re-derives them with
``PYTHONPATH=src python tests/test_schedule_pins.py`` and says why.
"""

import hashlib

import pytest

from repro.machines import summit
from repro.obs.timeline import TimelineSink
from repro.perf.model import simulate_qdwh
from repro.resilience.faults import (
    FaultPlan,
    LinkDegradation,
    RankCrash,
    StragglerSlot,
    TransientFaults,
)

SHAPES = {
    "small_tiles": dict(n=160, m=160, nb=32, cond=1e4),
    "illcond_tall": dict(n=384, m=768, nb=128, cond=1e16),
}
IMPLS = ("slate_gpu", "slate_cpu", "scalapack")
FAULTED = ("illcond_tall", "slate_gpu")


def fault_plan(makespan: float) -> FaultPlan:
    """Rank 0 (the owner of initial tiles other ranks cold-read) dies
    halfway through the fault-free run with work in flight; 2 % of
    kernels fail transiently, rank 2 straggles 4x (speculation) and
    every link into rank 3 is 3x slower: every branch of the fault
    path."""
    return FaultPlan(seed=7,
                     crashes=(RankCrash(rank=0, time=0.5 * makespan),),
                     transient=TransientFaults(probability=0.02),
                     stragglers=(StragglerSlot(rank=2, factor=4.0),),
                     links=(LinkDegradation(dst=3, beta_factor=3.0),))


def run(shape: str, impl: str, faults=None) -> dict:
    """One simulated schedule, as the hex/int record the pins hold."""
    s = SHAPES[shape]
    sink = TimelineSink()
    r = simulate_qdwh(summit(), 2, s["n"], impl, nb=s["nb"], m=s["m"],
                      cond=s["cond"], max_tiles=10 ** 6, sink=sink,
                      faults=faults).schedule
    events = hashlib.sha256()
    for stream in (sink.tasks, sink.transfers, sink.barriers, sink.stalls,
                   sink.faults):
        for ev in stream:
            events.update(repr(ev).encode())
    out = {
        "makespan": r.makespan.hex(),
        "critical_path": r.critical_path.hex(),
        "per_kind_busy": {k: v.hex()
                          for k, v in sorted(r.per_kind_busy.items())},
        "per_rank_busy": [v.hex() for v in r.per_rank_busy],
        "stall_seconds": {k: v.hex()
                          for k, v in sorted(r.stall_seconds.items())},
        "comm": r.comm.as_dict(),
        "events": events.hexdigest()[:32],
    }
    if r.recovery is not None:
        out["recovery"] = {k: v.hex() if isinstance(v, float) else v
                           for k, v in r.recovery.as_dict().items()}
    return out


def run_faulted() -> dict:
    base = float.fromhex(PINS[FAULTED]["makespan"])
    return run(*FAULTED, faults=fault_plan(base))


# Derived from the scheduler that priced every task at each dispatch and
# again for the critical path and sized every edge on every visit; the
# one that prices each distinct key once per call and reads edge bytes
# from TaskGraph.schedule_tables() reproduces them bit for bit.
PINS = {('small_tiles', 'slate_gpu'): {'makespan': '0x1.fd4fb8c228dd2p-9',
                                'critical_path': '0x1.8058761a01eefp-10',
                                'per_kind_busy': {'add': '0x1.031216b3af119p-9',
                                                  'copy': '0x1.dc9fd3db80b20p-9',
                                                  'gemm': '0x1.d7a4847219fb2p-8',
                                                  'gemv': '0x1.af26fc3a1dd6fp-11',
                                                  'geqrt': '0x1.3fb7d6738c54cp-11',
                                                  'herk': '0x1.276a46c78788cp-10',
                                                  'norm': '0x1.60f4e6f4aeb07p-11',
                                                  'potrf': '0x1.8b637c36d8ef2p-15',
                                                  'reduce': '0x1.605e510163a0dp-14',
                                                  'scale': '0x1.7ba87bd9f261cp-12',
                                                  'set': '0x1.72b533000ebedp-10',
                                                  'solve_vec': '0x1.c1c788a7bc202p-15',
                                                  'tpmqrt': '0x1.4e2994820df2ep-10',
                                                  'tpqrt': '0x1.a4cd8c941e01ep-12',
                                                  'trsm': '0x1.fb29327678f4cp-10',
                                                  'unmqr': '0x1.631d972881bb9p-10'},
                                'per_rank_busy': ['0x1.1604842f6bf95p-7',
                                                  '0x1.632cd54f9cba0p-8',
                                                  '0x1.4ef1e2b675b7ep-8',
                                                  '0x1.03175657de0b7p-8'],
                                'stall_seconds': {'dependency': '0x1.0c9a01e76568ap-2',
                                                  'link-busy': '0x1.040572312e738p-6',
                                                  'lookahead-gate': '0x0.0p+0'},
                                'comm': {'messages': {'h2d': 507,
                                                      'd2h': 521,
                                                      'intra_node': 563,
                                                      'inter_node': 573},
                                         'bytes': {'h2d': 5231616,
                                                   'd2h': 4176896,
                                                   'intra_node': 3560576,
                                                   'inter_node': 3813264}},
                                'events': 'e838c5fc62858458b24fb11e17eb39b4'},
 ('small_tiles', 'slate_cpu'): {'makespan': '0x1.617c2e029742bp-10',
                                'critical_path': '0x1.04ab2b18a2710p-10',
                                'per_kind_busy': {'add': '0x1.10f883bfa9024p-10',
                                                  'copy': '0x1.fa0079bcb3a30p-11',
                                                  'gemm': '0x1.1b3ab48f9a49dp-8',
                                                  'gemv': '0x1.af26fc3a1dd6fp-11',
                                                  'geqrt': '0x1.3fb7d6738c54cp-11',
                                                  'herk': '0x1.bd8c17a8e0c9ep-12',
                                                  'norm': '0x1.60f4e6f4aeb07p-11',
                                                  'potrf': '0x1.8b637c36d8ef2p-15',
                                                  'reduce': '0x1.605e510163a0dp-14',
                                                  'scale': '0x1.37c6cf1534d3dp-14',
                                                  'set': '0x1.898e9792c49b5p-12',
                                                  'solve_vec': '0x1.c1c788a7bc202p-15',
                                                  'tpmqrt': '0x1.86d7fa7a8ec28p-10',
                                                  'tpqrt': '0x1.a4cd8c941e01ep-12',
                                                  'trsm': '0x1.9de7fc60c07c9p-11',
                                                  'unmqr': '0x1.9359a0609c127p-10'},
                                'per_rank_busy': ['0x1.4bb515c947517p-8',
                                                  '0x1.aaeadb8bd6568p-9',
                                                  '0x1.8f705ccc21536p-9',
                                                  '0x1.33a6fd0033002p-9'],
                                'stall_seconds': {'dependency': '0x1.782d78ade7091p-4',
                                                  'link-busy': '0x1.4a4e68ee51254p-8',
                                                  'lookahead-gate': '0x0.0p+0'},
                                'comm': {'messages': {'intra_node': 560,
                                                      'inter_node': 576},
                                         'bytes': {'intra_node': 3536000,
                                                   'inter_node': 3862416}},
                                'events': '0b0449be8996528b10d4e1b7f6558552'},
 ('small_tiles', 'scalapack'): {'makespan': '0x1.31ae524cfcaa9p-9',
                                'critical_path': '0x1.04ab2b18a2710p-10',
                                'per_kind_busy': {'add': '0x1.10f883bfa9025p-10',
                                                  'copy': '0x1.fa0079bcb3a30p-11',
                                                  'gemm': '0x1.1b3ab48f9a49dp-8',
                                                  'gemv': '0x1.af26fc3a1dd6fp-11',
                                                  'geqrt': '0x1.3fb7d6738c54cp-11',
                                                  'herk': '0x1.bd8c17a8e0c9ep-12',
                                                  'norm': '0x1.60f4e6f4aeb07p-11',
                                                  'potrf': '0x1.8b637c36d8ef2p-15',
                                                  'reduce': '0x1.605e510163a0dp-14',
                                                  'scale': '0x1.37c6cf1534d3dp-14',
                                                  'set': '0x1.898e9792c49b5p-12',
                                                  'solve_vec': '0x1.c1c788a7bc202p-15',
                                                  'tpmqrt': '0x1.86d7fa7a8ec28p-10',
                                                  'tpqrt': '0x1.a4cd8c941e01ep-12',
                                                  'trsm': '0x1.9de7fc60c07c9p-11',
                                                  'unmqr': '0x1.9359a0609c127p-10'},
                                'per_rank_busy': ['0x1.4bb515c94751ap-8',
                                                  '0x1.aaeadb8bd6567p-9',
                                                  '0x1.8f705ccc2153bp-9',
                                                  '0x1.33a6fd0033005p-9'],
                                'stall_seconds': {'dependency': '0x1.6d6b034182c51p-3',
                                                  'link-busy': '0x1.efd4dbcefaff8p-10',
                                                  'lookahead-gate': '0x1.2a49c38664d1ep-2'},
                                'comm': {'messages': {'intra_node': 562,
                                                      'inter_node': 574},
                                         'bytes': {'intra_node': 3552384,
                                                   'inter_node': 3821456}},
                                'events': 'af5d06e483960addeff4b688263d5d00'},
 ('illcond_tall', 'slate_gpu'): {'makespan': '0x1.ae6edddebb587p-6',
                                 'critical_path': '0x1.7b20b0469aec3p-6',
                                 'per_kind_busy': {'add': '0x1.99fac4d4a927fp-10',
                                                   'copy': '0x1.ac56848cc6ecfp-9',
                                                   'gemm': '0x1.ee2ee00742f68p-9',
                                                   'gemv': '0x1.3a0c0286f221ap-8',
                                                   'geqrt': '0x1.9a7e3c2b3c18ap-5',
                                                   'herk': '0x1.2c27d7586eddap-11',
                                                   'norm': '0x1.2b688d7d99a35p-8',
                                                   'potrf': '0x1.4a9fbc76a5a05p-11',
                                                   'reduce': '0x1.b9219f90768b4p-14',
                                                   'scale': '0x1.0416aabea03cdp-12',
                                                   'set': '0x1.2ad726e5317cdp-10',
                                                   'solve_vec': '0x1.e9c2ffe3de128p-13',
                                                   'tpmqrt': '0x1.2a42720ee4a63p-9',
                                                   'tpqrt': '0x1.209e24a659e4bp-5',
                                                   'trsm': '0x1.1e993555284ecp-10',
                                                   'unmqr': '0x1.281d912bc109dp-9'},
                                 'per_rank_busy': ['0x1.9ae0bd368cbabp-5',
                                                   '0x1.8dca4251df35ap-6',
                                                   '0x1.a49b0890a2253p-7',
                                                   '0x1.92e3429096a54p-6'],
                                 'stall_seconds': {'dependency': '0x1.129edf90e607dp+1',
                                                   'link-busy': '0x1.da1214d6a19aap-6',
                                                   'lookahead-gate': '0x0.0p+0'},
                                 'comm': {'messages': {'h2d': 447,
                                                       'd2h': 397,
                                                       'intra_node': 353,
                                                       'inter_node': 426},
                                          'bytes': {'h2d': 85471232,
                                                    'd2h': 50741248,
                                                    'intra_node': 31389096,
                                                    'inter_node': 51738912}},
                                 'events': '121dd90deb4654c04c6c1cb2095abcad'},
 ('illcond_tall', 'slate_cpu'): {'makespan': '0x1.aa1b5e66ca3b6p-5',
                                 'critical_path': '0x1.a1b43ea79ffd5p-5',
                                 'per_kind_busy': {'add': '0x1.e3a2f194b49f3p-8',
                                                   'copy': '0x1.8aded182eb099p-8',
                                                   'gemm': '0x1.33e6a20dee4e3p-4',
                                                   'gemv': '0x1.3a0c0286f221ap-8',
                                                   'geqrt': '0x1.9a7e3c2b3c18ap-5',
                                                   'herk': '0x1.afe12be372ffbp-8',
                                                   'norm': '0x1.2b688d7d99a35p-8',
                                                   'potrf': '0x1.4a9fbc76a5a05p-11',
                                                   'reduce': '0x1.b9219f90768b4p-14',
                                                   'scale': '0x1.33df44cdb9515p-12',
                                                   'set': '0x1.137daff02ce9fp-9',
                                                   'solve_vec': '0x1.e9c2ffe3de128p-13',
                                                   'tpmqrt': '0x1.3d0a734204171p-4',
                                                   'tpqrt': '0x1.209e24a659e4bp-5',
                                                   'trsm': '0x1.c2ae412f6580ap-7',
                                                   'unmqr': '0x1.377a3c26f2d0bp-4'},
                                 'per_rank_busy': ['0x1.2609061c2024dp-3',
                                                   '0x1.72badd0084fdcp-4',
                                                   '0x1.10f3a45d3e502p-4',
                                                   '0x1.e928d5094b59cp-5'],
                                 'stall_seconds': {'dependency': '0x1.f4f7d5c4ab4d3p+1',
                                                   'link-busy': '0x1.a2412c5f484c4p-7',
                                                   'lookahead-gate': '0x0.0p+0'},
                                 'comm': {'messages': {'intra_node': 342,
                                                       'inter_node': 437},
                                          'bytes': {'intra_node': 29947304,
                                                    'inter_node': 53180704}},
                                 'events': 'd99339cb6f1353ff2c899d31fb126a05'},
 ('illcond_tall', 'scalapack'): {'makespan': '0x1.08ad4dd8f8e41p-4',
                                 'critical_path': '0x1.a1b43ea79ffd5p-5',
                                 'per_kind_busy': {'add': '0x1.e3a2f194b49f3p-8',
                                                   'copy': '0x1.8aded182eb099p-8',
                                                   'gemm': '0x1.33e6a20dee4e3p-4',
                                                   'gemv': '0x1.3a0c0286f221ap-8',
                                                   'geqrt': '0x1.9a7e3c2b3c18ap-5',
                                                   'herk': '0x1.afe12be372ffbp-8',
                                                   'norm': '0x1.2b688d7d99a35p-8',
                                                   'potrf': '0x1.4a9fbc76a5a05p-11',
                                                   'reduce': '0x1.b9219f90768b2p-14',
                                                   'scale': '0x1.33df44cdb9515p-12',
                                                   'set': '0x1.137daff02ce9fp-9',
                                                   'solve_vec': '0x1.e9c2ffe3de128p-13',
                                                   'tpmqrt': '0x1.3d0a734204171p-4',
                                                   'tpqrt': '0x1.209e24a659e4bp-5',
                                                   'trsm': '0x1.c2ae412f6580ap-7',
                                                   'unmqr': '0x1.377a3c26f2d0bp-4'},
                                 'per_rank_busy': ['0x1.2609061c20254p-3',
                                                   '0x1.72badd0084fe0p-4',
                                                   '0x1.10f3a45d3e505p-4',
                                                   '0x1.e928d5094b5a0p-5'],
                                 'stall_seconds': {'dependency': '0x1.400154b2f8715p+2',
                                                   'link-busy': '0x1.1b21f08b57a3ep-8',
                                                   'lookahead-gate': '0x1.5f9681981ee26p+2'},
                                 'comm': {'messages': {'intra_node': 356,
                                                       'inter_node': 423},
                                          'bytes': {'intra_node': 31782312,
                                                    'inter_node': 51345696}},
                                 'events': 'dfd9ee3ad7051159aea3ae5f1e7108af'}}

FAULT_PIN = {'makespan': '0x1.3107092203b7ep-5',
 'critical_path': '0x1.7b20b0469aec3p-6',
 'per_kind_busy': {'add': '0x1.3ae96cf67e5d4p-9',
                   'copy': '0x1.6844ccc1d0fc4p-8',
                   'gemm': '0x1.ba4ce4ba9299cp-8',
                   'gemv': '0x1.b874aafdaa89ep-8',
                   'geqrt': '0x1.9a7e3c2b3c189p-5',
                   'herk': '0x1.3a72e19998400p-11',
                   'norm': '0x1.53270c2f92b7cp-8',
                   'potrf': '0x1.4a9fbc76a5a80p-11',
                   'reduce': '0x1.dd1f624649dc3p-14',
                   'scale': '0x1.39373a3153ba6p-12',
                   'set': '0x1.92e19525d0f6cp-10',
                   'solve_vec': '0x1.e9c2ffe3de080p-13',
                   'tpmqrt': '0x1.ffc9498819d53p-9',
                   'tpqrt': '0x1.46500f6a541cbp-5',
                   'trsm': '0x1.1e99355528640p-9',
                   'unmqr': '0x1.c1f6951626c5ap-9'},
 'per_rank_busy': ['0x1.c4001d1cce52ap-6',
                   '0x1.dcfbe650f3ccep-5',
                   '0x1.7d3109f689658p-5',
                   '0x1.12ca07c9142edp-5'],
 'stall_seconds': {'dependency': '0x1.15a795343774ep+1',
                   'link-busy': '0x1.a8a2baa58b780p-6',
                   'lookahead-gate': '0x0.0p+0'},
 'comm': {'messages': {'h2d': 461,
                       'd2h': 431,
                       'intra_node': 208,
                       'inter_node': 731},
          'bytes': {'h2d': 87175168,
                    'd2h': 56770560,
                    'intra_node': 16189624,
                    'inter_node': 102771008}},
 'events': '3f24f3638d4147409b43f2451e4c4497',
 'recovery': {'crashes': 1,
              'dead_ranks': [0],
              'revoked_inflight': 3,
              'replayed_tasks': 168,
              'lost_tiles': 359,
              'transient_failures': 46,
              'retried_tasks': 45,
              'speculative_duplicates': 307,
              'speculation_wins': 131,
              'degraded_transfers': 118,
              'reexecution_seconds': '0x1.60710f2cb4f7dp-6',
              'recovery_bytes': 47089688,
              'timeouts': 0,
              'corrupted_tiles': 0,
              'injected_stalls': 0,
              'health_events': 0,
              'net_drops': 0,
              'net_corrupt_frames': 0,
              'net_retransmits': 0,
              'net_reconnects': 0,
              'heartbeat_suspects': 0}}


@pytest.mark.parametrize("case", sorted(PINS), ids="-".join)
def test_fault_free_schedule_is_pinned(case):
    assert run(*case) == PINS[case]


def test_fault_plan_schedule_is_pinned():
    got = run_faulted()
    rec = got["recovery"]
    assert rec["crashes"] == 1
    for fired in ("revoked_inflight", "replayed_tasks", "transient_failures",
                  "speculative_duplicates", "degraded_transfers"):
        assert rec[fired] > 0, fired
    assert got == FAULT_PIN


if __name__ == "__main__":
    import pprint

    PINS.update({(shape, impl): run(shape, impl)
                 for shape in SHAPES for impl in IMPLS})
    print("PINS = " + pprint.pformat(PINS, sort_dicts=False))
    print("\nFAULT_PIN = " + pprint.pformat(run_faulted(), sort_dicts=False))
