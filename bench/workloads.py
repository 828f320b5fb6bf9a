"""Scenario generators for the benchmark workloads.

Each generator maps a workload seed to a plain scenario dict, the same
shape `swarmlink.scenario_from_dict` accepts from a JSON file. The seed
moves node positions by a bounded jitter and picks the simulator seed, so
every seed gives a scenario of the same size and shape; the same seed
always gives the same dict.
"""

from __future__ import annotations

import random
from typing import Callable, Dict


def _jitter(rng: random.Random, x: float, y: float, amount: float):
    return [round(x + rng.uniform(-amount, amount), 3), round(y + rng.uniform(-amount, amount), 3)]


def grid_flood(seed: int) -> dict:
    """About 50 nodes on a jittered grid, flooding over WiFi with cellular fallback.

    Each transmission is offered to every other node, so per-transmission
    cost grows with N. At 120 m spacing the 300 m WiFi range reaches the
    lattice neighbours up to sqrt(5) spacings away (268 m) and none at
    sqrt(8) (339 m); the 8 m jitter never crosses either margin, so every
    seed has the same neighbour sets. Cellular carries the handshakes to
    UAVs out of WiFi range of the ground station, so every UAV gets keys;
    short timers finish keying within about a second, and traffic starts
    once the 2 s link hold-down after those cellular sends has expired, so
    floods ride WiFi only and the latency tail does not depend on the seed.
    """
    rng = random.Random(f"grid_flood/{seed}")
    side, spacing = 7, 120.0
    nodes = []
    for i in range(side * side):
        row, col = divmod(i, side)
        nodes.append(
            {
                "id": i + 1,
                "role": "gcs" if i == (side * side) // 2 else "uav",
                "position": _jitter(rng, col * spacing, row * spacing, 8.0),
            }
        )
    return {
        "name": "bench_grid_flood",
        "seed": rng.getrandbits(31),
        "duration_s": 6.5,
        "mode": "mesh",
        "nodes": nodes,
        "links": {"wifi24": {"band": "wifi24"}, "cellular": {"band": "cellular"}},
        "protocol": {
            "hop_limit": 6,
            "handshake_timeout_s": 0.5,
            "handshake_retries": 8,
            "rekey_resend_interval_s": 0.25,
        },
        "traffic": {"senders": "uavs", "rate_hz": 1.0, "payload_bytes": 32, "start_s": 3.5},
    }


def star_fanout(seed: int) -> dict:
    """About 25 UAVs in WiFi range of the ground station, star relay at 4 Hz.

    Every uplink frame is opened at the ground station and re-sealed once
    per other UAV, so sealing, opening and AES-GCM dominate; each
    transmission is unicast to one receiver, so the radio and mesh layers
    do almost nothing. All UAVs sit within 283 m of the ground station,
    inside the 300 m WiFi range.
    """
    rng = random.Random(f"star_fanout/{seed}")
    nodes = [{"id": 1, "role": "gcs", "position": [0.0, 0.0]}]
    for i in range(24):
        nodes.append(
            {"id": i + 2, "role": "uav", "position": _jitter(rng, 0.0, 0.0, 200.0)}
        )
    return {
        "name": "bench_star_fanout",
        "seed": rng.getrandbits(31),
        "duration_s": 12.0,
        "mode": "star",
        "protocol": {"handshake_timeout_s": 0.5, "handshake_retries": 6},
        "nodes": nodes,
        "links": {"wifi24": {"band": "wifi24"}},
        "traffic": {"senders": "uavs", "rate_hz": 4.0, "payload_bytes": 48, "start_s": 2.0},
    }


def contested_churn(seed: int) -> dict:
    """About 13 nodes on lossy WiFi plus sub-GHz, under fast key churn and attack.

    A 4 s key lifetime with quick handshake retries and rekey resends keeps
    the handshake and rekey layers busy; a replay injector re-sends
    recorded packets thousands of times and an eavesdropper holds leaked
    epochs, so codec and mesh run their rejection paths. The 75 m lattice
    keeps every pair within WiFi range, whatever the jitter.
    """
    rng = random.Random(f"contested_churn/{seed}")
    nodes = [{"id": 1, "role": "gcs", "position": [0.0, 0.0]}]
    for i in range(12):
        col, row = i % 4, i // 4
        nodes.append(
            {
                "id": i + 2,
                "role": "uav",
                "position": _jitter(rng, (col - 1.5) * 75.0, (row - 1.0) * 75.0, 5.0),
            }
        )
    return {
        "name": "bench_contested_churn",
        "seed": rng.getrandbits(31),
        "duration_s": 24.0,
        "mode": "mesh",
        "nodes": nodes,
        "links": {
            "wifi24": {"band": "wifi24", "loss_prob": 0.2},
            "subghz": {"band": "subghz"},
        },
        "protocol": {
            "key_lifetime_s": 4.0,
            "grace_window_s": 1.0,
            "handshake_timeout_s": 1.0,
            "handshake_retries": 8,
            "rekey_resend_interval_s": 0.5,
            "dedup_capacity": 64,
        },
        "security": {"leak_epochs": [2, 5]},
        "traffic": {"senders": "uavs", "rate_hz": 2.0, "payload_bytes": 24, "start_s": 2.0},
        "adversaries": [
            {"kind": "eavesdrop", "start_s": 0.0},
            {"kind": "replay_injector", "start_s": 4.0, "injections": 2000},
        ],
    }


def duty_rollover(seed: int) -> dict:
    """A saturated duty-cycled sub-GHz mesh that runs past one duty window.

    The shape of the shipped `duty_cycle_stress` scenario, run for longer
    than its 60 s window, so the duty-cycle meter has to age bursts out and
    release deferred transmissions.
    """
    rng = random.Random(f"duty_rollover/{seed}")
    nodes = [{"id": 1, "role": "gcs", "position": [0.0, 0.0]}]
    for i, (x, y) in enumerate([(800.0, 0.0), (0.0, 800.0), (-800.0, 0.0), (0.0, -800.0)]):
        nodes.append({"id": i + 2, "role": "uav", "position": _jitter(rng, x, y, 50.0)})
    return {
        "name": "bench_duty_rollover",
        "seed": rng.getrandbits(31),
        "duration_s": 75.0,
        "mode": "mesh",
        "nodes": nodes,
        "links": {
            "subghz": {
                "band": "subghz",
                "loss_prob": 0.0,
                "duty_cycle_limit": 0.01,
                "duty_window_s": 60.0,
            }
        },
        "protocol": {"hop_limit": 2},
        "traffic": {"senders": "uavs", "rate_hz": 4.0, "payload_bytes": 64, "start_s": 3.0, "stop_s": 27.0},
    }


WORKLOADS: Dict[str, Callable[[int], dict]] = {
    "grid_flood": grid_flood,
    "star_fanout": star_fanout,
    "contested_churn": contested_churn,
    "duty_rollover": duty_rollover,
}
