"""Golden samples: fixed inputs through the real code paths.

Everything here derives from hard-coded constants and seeded RNGs, so the
output is identical on every run and platform. The committed copies under
tests/golden/ pin two things: the wire formats (any byte-level change to
framing, sealing, or the handshake messages shows up as a diff), and whole
runs, as one SHA-256 per scenario over its canonical report and trace.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Type

from . import codec, crypto, handshake, rekey
from .metrics import render_json
from .scenario import Scenario, load_scenario, scenario_from_dict
from .sim import Simulation

_GOLDEN_SEED = 0x5EED


def _frame(messages) -> codec.Frame:
    return codec.Frame(messages=tuple(codec.TelemetryMessage(*m) for m in messages))


def generate_golden() -> dict:
    rng = random.Random(_GOLDEN_SEED)

    frame_specs = [
        [],
        [(0x01, 7, bytes.fromhex("deadbeef"))],
        [
            (0x01, 1, bytes(8)),
            (0x02, 2, bytes.fromhex("0102030405")),
            (0xFF, 65535, b"x" * 32),
        ],
    ]
    frame_samples = []
    for spec in frame_specs:
        frame = _frame(spec)
        frame_samples.append(
            {
                "messages": [
                    {"msg_id": m.msg_id, "source_node": m.source_node, "payload_hex": m.payload.hex()}
                    for m in frame.messages
                ],
                "frame_hex": frame.to_bytes().hex(),
            }
        )

    key = crypto.SymmetricKey(bytes_=bytes(range(32)), purpose=crypto.KeyPurpose.BROADCAST)
    keyring = rekey.KeyRing()
    keyring.install(rekey.BroadcastKey(epoch=3, key=key, not_after=60.0), now=0.0, grace_window_s=5.0)
    counters = codec.PacketCounters()
    packet_samples = []
    for seq, hop_limit, spec in [
        (0, 8, frame_specs[1]),
        (1, 0, frame_specs[2]),
        (2, 255, frame_specs[1]),
    ]:
        packet = codec.seal_packet(keyring, origin=42, seq=seq, hop_limit=hop_limit,
                                   frame=_frame(spec), counters=counters)
        packet_samples.append(
            {
                "key_hex": key.bytes_.hex(),
                "epoch": packet.epoch,
                "origin": packet.origin,
                "seq": packet.seq,
                "hop_limit": packet.hop_limit,
                "counter": packet.counter,
                "plaintext_hex": _frame(spec).to_bytes().hex(),
                "packet_hex": packet.to_bytes().hex(),
            }
        )

    gcs_sig = crypto.keypair_from_seed(b"\x01" * 32, "signature")
    uav_sig = crypto.keypair_from_seed(b"\x02" * 32, "signature")
    roster = handshake.SwarmRoster(
        gcs_id=1,
        uav_ids=(2,),
        sig_public_keys={1: gcs_sig.public_key, 2: uav_sig.public_key},
    )
    table = handshake.SessionTable()
    offer = handshake.gcs_start_handshake(roster, gcs_sig, table, 2, rng, now=0.0, timeout_s=5.0)
    response, uav_key = handshake.uav_on_offer(roster, 2, uav_sig, offer, rng)
    gcs_key = handshake.gcs_on_response(roster, table, response, now=0.1)
    handshake_sample = {
        "gcs_sig_seed_hex": (b"\x01" * 32).hex(),
        "uav_sig_seed_hex": (b"\x02" * 32).hex(),
        "rng_seed": _GOLDEN_SEED,
        "offer_hex": offer.to_bytes().hex(),
        "response_hex": response.to_bytes().hex(),
        "session_key_hex": gcs_key.bytes_.hex(),
        "keys_match": gcs_key.bytes_ == uav_key.bytes_,
    }

    bkey = rekey.BroadcastKey(epoch=2, key=key, not_after=123.0)
    wrap = rekey.wrap_for(gcs_key, 1, 2, bkey, rng)
    ack = rekey.RekeyAck(uav_id=2, epoch=2)
    rekey_sample = {
        "epoch": bkey.epoch,
        "not_after": bkey.not_after,
        "rekey_hex": wrap.to_bytes().hex(),
        "ack_hex": ack.to_bytes().hex(),
    }

    return {
        "frame_samples": frame_samples,
        "packet_samples": packet_samples,
        "handshake_sample": handshake_sample,
        "rekey_sample": rekey_sample,
    }


def run_digest(sc: Scenario, simulation: Type[Simulation] = Simulation) -> str:
    """SHA-256 of a run's canonical JSON report followed by its joined
    trace, run on `simulation` (a subclass, say, with its fast paths off)."""
    sim = simulation(sc)
    report, trace = sim.run(), sim.trace
    text = render_json(report) + "\n".join(trace) + ("\n" if trace else "")
    return hashlib.sha256(text.encode()).hexdigest()


def _grid_nodes(side: int, spacing: float, down_at: Dict[int, float]) -> List[dict]:
    """side x side lattice, ids row by row from 1, ground station in the centre;
    `down_at` maps node id to the time that node powers off."""
    centre = (side * side) // 2
    return [
        {
            "id": i + 1,
            "role": "gcs" if i == centre else "uav",
            "position": [(i % side) * spacing, (i // side) * spacing],
            "down_at_s": down_at.get(i + 1),
        }
        for i in range(side * side)
    ]


def generated_scenarios() -> Dict[str, dict]:
    """Scenario dicts the run-digest lock covers beside the shipped ones.

    `grid49_wifi_cellular` floods a 7 x 7 grid at 120 m spacing, so each
    node hears at most its lattice neighbours on 300 m WiFi and every peer
    on cellular. `grid25_churn` loses a relay and a corner node mid-run and
    raises WiFi loss by a timed link event, so broadcasts must skip down
    receivers and the selector sees a degraded link. `contested13_replay`
    runs 13 nodes under 4 s key churn with an eavesdropper and a replay
    injector, so injected bytes meet the mesh rejection paths.
    `star9_mitm_replay` runs star mode with signature checks off while a
    key-substitution tap is active over the first handshake attempts, then
    replays recorded packets, so mismatched session keys and replays meet
    the star data path. `plain9_replay_down` floods in the clear past an
    eavesdropper and a replay injector and loses one node mid-run.
    """
    protocol = {
        "hop_limit": 6,
        "handshake_timeout_s": 0.5,
        "handshake_retries": 8,
        "rekey_resend_interval_s": 0.25,
    }
    return {
        "grid49_wifi_cellular": {
            "name": "grid49_wifi_cellular",
            "seed": 4901,
            "duration_s": 6.0,
            "mode": "mesh",
            "nodes": _grid_nodes(7, 120.0, {}),
            "links": {"wifi24": {"band": "wifi24"}, "cellular": {"band": "cellular"}},
            "protocol": protocol,
            "traffic": {"senders": "uavs", "rate_hz": 1.0, "payload_bytes": 32, "start_s": 3.5},
        },
        "grid25_churn": {
            "name": "grid25_churn",
            "seed": 2502,
            "duration_s": 10.0,
            "mode": "mesh",
            "nodes": _grid_nodes(5, 150.0, {8: 5.0, 25: 6.5}),
            "links": {
                "wifi24": {"band": "wifi24", "loss_prob": 0.05},
                "cellular": {"band": "cellular"},
            },
            "protocol": protocol,
            "traffic": {"senders": "uavs", "rate_hz": 2.0, "payload_bytes": 32, "start_s": 3.5},
            "link_events": [{"at_s": 6.0, "link": "wifi24", "set": {"loss_prob": 0.6}}],
        },
        "contested13_replay": {
            "name": "contested13_replay",
            "seed": 1313,
            "duration_s": 16.0,
            "mode": "mesh",
            "nodes": [{"id": 1, "role": "gcs", "position": [0.0, 0.0]}] + [
                {"id": i + 2, "role": "uav", "position": [(i % 4 - 1.5) * 75, (i // 4 - 1.0) * 75]}
                for i in range(12)
            ],
            "links": {"wifi24": {"band": "wifi24", "loss_prob": 0.2}, "subghz": {"band": "subghz"}},
            "protocol": {
                "key_lifetime_s": 4.0, "grace_window_s": 1.0, "handshake_timeout_s": 1.0,
                "handshake_retries": 8, "rekey_resend_interval_s": 0.5, "dedup_capacity": 64,
            },
            "security": {"leak_epochs": [2, 5]},
            "traffic": {"senders": "uavs", "rate_hz": 2.0, "payload_bytes": 24, "start_s": 2.0},
            "adversaries": [
                {"kind": "eavesdrop", "start_s": 0.0},
                {"kind": "replay_injector", "start_s": 4.0, "injections": 600},
            ],
        },
        "star9_mitm_replay": {
            "name": "star9_mitm_replay",
            "seed": 909,
            "duration_s": 8.0,
            "mode": "star",
            "nodes": [{"id": 1, "role": "gcs", "position": [0.0, 0.0]}] + [
                {"id": i + 2, "role": "uav", "position": [(i % 4 - 1.5) * 40, (i // 4 - 0.5) * 60]}
                for i in range(8)
            ],
            "links": {"wifi24": {"band": "wifi24", "loss_prob": 0.1}},
            "protocol": {"handshake_timeout_s": 0.5, "handshake_retries": 8},
            "security": {"verify_signatures": False},
            "traffic": {"senders": "uavs", "rate_hz": 2.0, "payload_bytes": 24, "start_s": 1.0},
            "adversaries": [
                {"kind": "mitm_key_substitution", "start_s": 0.0, "end_s": 0.3},
                {"kind": "replay_injector", "start_s": 2.0, "injections": 200},
            ],
        },
        "plain9_replay_down": {
            "name": "plain9_replay_down",
            "seed": 919,
            "duration_s": 8.0,
            "mode": "mesh",
            "nodes": [{"id": 1, "role": "gcs", "position": [0.0, 0.0]}] + [
                {
                    "id": i + 2, "role": "uav", "position": [(i % 4 - 1.5) * 80, (i // 4 - 0.5) * 80],
                    "down_at_s": 5.0 if i == 5 else None,
                }
                for i in range(8)
            ],
            "links": {"wifi24": {"band": "wifi24", "loss_prob": 0.1}},
            "protocol": {"hop_limit": 4, "dedup_capacity": 32},
            "security": {"encryption": False},
            "traffic": {"senders": "uavs", "rate_hz": 2.0, "payload_bytes": 24, "start_s": 1.0},
            "adversaries": [
                {"kind": "eavesdrop", "start_s": 0.0},
                {"kind": "replay_injector", "start_s": 2.0, "injections": 200},
            ],
        },
    }


def locked_scenarios() -> Dict[str, Scenario]:
    """Every scenario the run-digest lock covers, by name: the shipped ones
    in name order, then the generated ones, sorted."""
    from .cli import SHIPPED_SCENARIOS, shipped_scenario_path  # cli imports this module

    locked = {name: load_scenario(shipped_scenario_path(name)) for name in SHIPPED_SCENARIOS}
    generated = generated_scenarios()
    locked.update((name, scenario_from_dict(generated[name])) for name in sorted(generated))
    return locked
