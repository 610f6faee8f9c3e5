"""Physical multicast vs electrical replication (Sections 1 and 3.2).

"Optical signals can also be easily split for broadcast and multicast
communication, whereas electrical links require data replication that
incurs high energy costs."  This bench quantifies that: one photonic
multicast circuit (splitting states) against replicated unicasts on the
electrical mesh, across fanouts.
"""

from repro.analysis.report import format_table
from repro.noc.energy import NetworkEnergyModel
from repro.noc.packet import Packet
from repro.noc.simulation import make_network

SIZE_FLITS = 8
FANOUTS = (2, 4, 8, 15)


def run_case(fanout: int):
    dsts = list(range(1, fanout + 1))

    flumen = make_network("flumen", 16)
    flumen.offer_packet(Packet(
        src=0, dst=dsts[0], size_flits=SIZE_FLITS, create_cycle=0,
        multicast_dsts=tuple(dsts)))
    for _ in range(2000):
        flumen.step()
        if flumen.quiescent():
            break

    mesh = make_network("mesh", 16)
    for d in dsts:
        mesh.offer_packet(Packet(src=0, dst=d, size_flits=SIZE_FLITS,
                                 create_cycle=0))
    for _ in range(5000):
        mesh.step()
        if mesh.quiescent():
            break
    return flumen, mesh


def test_multicast_advantage(benchmark):
    cases = benchmark.pedantic(
        lambda: {f: run_case(f) for f in FANOUTS}, rounds=1, iterations=1)
    model = NetworkEnergyModel()
    rows = []
    for fanout, (flumen, mesh) in cases.items():
        fl_e = model.of(flumen.result("mcast", 0.0)).total
        me_e = model.of(mesh.result("mcast", 0.0)).total
        rows.append([
            fanout,
            flumen.latency.maximum, mesh.latency.maximum,
            f"{fl_e * 1e9:.2f}", f"{me_e * 1e9:.2f}",
            f"{me_e / fl_e:.1f}x",
        ])
    print()
    print(format_table(
        ["fanout", "Flumen cycles", "mesh cycles",
         "Flumen nJ", "mesh nJ", "energy gap"],
        rows, title="Physical multicast vs electrical replication"))

    for fanout, (flumen, mesh) in cases.items():
        fl_e = model.of(flumen.result("m", 0.0)).total
        me_e = model.of(mesh.result("m", 0.0)).total
        assert me_e > fl_e, fanout
        if fanout >= 4:
            # Completion time: the mesh serializes replicas at the source.
            assert flumen.latency.maximum < mesh.latency.maximum, fanout
    # The gap widens with fanout (replication scales linearly, the
    # optical split is one transmission).
    gaps = [model.of(cases[f][1].result("m", 0.0)).total
            / model.of(cases[f][0].result("m", 0.0)).total
            for f in FANOUTS]
    assert gaps == sorted(gaps)
