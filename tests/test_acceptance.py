"""End-to-end guarantees of the stack, each checked against an independent
reference: recomputed oracles, public cipher test vectors, graph search,
or a control run with the defense switched off. Every test prints one
PASS line with the evidence it gathered.

These tests intentionally re-derive expectations from scratch instead of
importing helpers from the unit-test modules, so a bug cannot hide in a
shared convenience function.
"""

import math
import random
import time
from collections import defaultdict
from dataclasses import replace

from swarmlink import crypto, handshake
from swarmlink.cli import SHIPPED_SCENARIOS, resolve_scenario
from swarmlink.codec import (
    Frame,
    PacketCounters,
    ReplayWindow,
    TelemetryMessage,
    WirePacket,
    compose_frames,
    frame_capacity,
    open_packet,
    open_with_key,
    seal_packet,
    seal_with_key,
)
from swarmlink.errors import (
    AuthError,
    MessageTooLarge,
    ReplayError,
    SignatureError,
    UnknownEpoch,
    ValidationError,
)
from swarmlink.handshake import (
    KeyOffer,
    KeyResponse,
    SessionTable,
    SwarmRoster,
    gcs_on_response,
    gcs_start_handshake,
    uav_on_offer,
)
from swarmlink.metrics import render_json
from swarmlink.rekey import BroadcastKeySource, KeyRing
from swarmlink.scenario import LinkPolicySpec, scenario_from_dict
from swarmlink.sim import Simulation, run_scenario


def _roster(rng: random.Random, n_uavs: int):
    """Random ids and fresh signature identities for one GCS and n UAVs."""
    ids = rng.sample(range(1, 4000), n_uavs + 1)
    keys = {}
    pubs = {}
    for nid in ids:
        kp = crypto.keypair_from_seed(rng.randbytes(crypto.SEED_LEN), "signature")
        keys[nid] = kp
        pubs[nid] = kp.public_key
    roster = SwarmRoster(gcs_id=ids[0], uav_ids=tuple(ids[1:]), sig_public_keys=pubs)
    return roster, keys


# ---------------------------------------------------------------------------
# pairwise key agreement


def test_randomized_handshakes_always_agree_on_session_keys():
    started = time.perf_counter()
    matches = 0
    for trial in range(100):
        rng = random.Random(41_000 + trial)
        roster, keys = _roster(rng, rng.randint(1, 10))
        uav_id = rng.choice(roster.uav_ids)
        table = SessionTable()
        offer = gcs_start_handshake(
            roster, keys[roster.gcs_id], table, uav_id, rng, now=0.0, timeout_s=5.0
        )
        offer = KeyOffer.from_bytes(offer.to_bytes())  # across the wire and back
        response, uav_key = uav_on_offer(roster, uav_id, keys[uav_id], offer, rng)
        response = KeyResponse.from_bytes(response.to_bytes())
        gcs_key = gcs_on_response(roster, table, response, now=0.2)
        if gcs_key.bytes_ == uav_key.bytes_:
            matches += 1
    elapsed = time.perf_counter() - started
    assert matches == 100
    assert elapsed < 5.0
    print(f"PASS key agreement: 100/100 handshakes byte-identical in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# key substitution in flight


def _forge(msg, adversary_point: bytes):
    # the adversary swaps in its own ephemeral point but cannot re-sign
    return replace(msg, ephemeral_pub=adversary_point)


def test_substituted_ephemerals_never_yield_a_shared_key():
    started = time.perf_counter()
    rng0 = random.Random(5151)
    roster, keys = _roster(rng0, 1)
    gcs_id, uav_id = roster.gcs_id, roster.uav_ids[0]

    flagged = installs = 0
    for trial in range(1000):
        rng = random.Random(500_000 + trial)
        adv = crypto.keypair_from_seed(rng.randbytes(crypto.SEED_LEN), "agreement")
        table = SessionTable()
        offer = gcs_start_handshake(roster, keys[gcs_id], table, uav_id, rng, 0.0, 5.0)
        if trial % 2 == 0:
            try:
                uav_on_offer(roster, uav_id, keys[uav_id], _forge(offer, adv.public_point), rng)
                installs += 1
            except SignatureError:
                flagged += 1
        else:
            response, _ = uav_on_offer(roster, uav_id, keys[uav_id], offer, rng)
            try:
                gcs_on_response(roster, table, _forge(response, adv.public_point), now=0.1)
                installs += 1
            except SignatureError:
                flagged += 1
    assert flagged == 1000
    assert installs == 0

    # Control arm: identical substitutions with verification disabled must
    # hand the adversary the session key, or the trial above proved nothing.
    stolen = 0
    control = 200
    for trial in range(control):
        rng = random.Random(700_000 + trial)
        adv = crypto.keypair_from_seed(rng.randbytes(crypto.SEED_LEN), "agreement")
        table = SessionTable()
        offer = gcs_start_handshake(roster, keys[gcs_id], table, uav_id, rng, 0.0, 5.0)
        if trial % 2 == 0:
            response, victim_key = uav_on_offer(
                roster, uav_id, keys[uav_id], _forge(offer, adv.public_point), rng,
                verify_signatures=False,
            )
            peer_point = response.ephemeral_pub
        else:
            response, _ = uav_on_offer(roster, uav_id, keys[uav_id], offer, rng)
            victim_key = gcs_on_response(
                roster, table, _forge(response, adv.public_point), now=0.1,
                verify_signatures=False,
            )
            peer_point = offer.ephemeral_pub
        shared = crypto.ecdh_shared_secret(adv, peer_point)
        adv_key = crypto.derive_key(shared, handshake._session_context(gcs_id, uav_id, offer.nonce))
        if adv_key.bytes_ == victim_key.bytes_:
            stolen += 1
    assert stolen == control

    # Cross-check inside the full simulation, both arms.
    sc = resolve_scenario("mitm_attack")
    guarded, _ = run_scenario(sc)
    exposed, _ = run_scenario(replace(sc, security=replace(sc.security, verify_signatures=False)))
    assert guarded["adversary"]["mitm"]["substituted_offers"] > 0
    assert guarded["adversary"]["mitm"]["compromised_keys"] == 0
    assert guarded["security_events"].get("SignatureError", 0) > 0
    assert exposed["adversary"]["mitm"]["compromised_keys"] > 0

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        "PASS substitution defense: 1000/1000 forgeries flagged, 0 keys compromised; "
        f"control without verification lost {stolen}/{control} keys "
        f"(sim control lost {exposed['adversary']['mitm']['compromised_keys']}) in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# forward secrecy across rotations


def test_leaked_epoch_key_unlocks_nothing_after_rotation():
    rng = random.Random(909)
    source = BroadcastKeySource(key_lifetime_s=1.0)
    counters = PacketCounters()
    history = []  # (epoch, key, [(packet, frame)])
    for cycle in range(110):
        bkey = source.new_epoch(rng, now=float(cycle))
        packets = []
        for _ in range(2):
            frame = Frame(messages=(TelemetryMessage(7, 3, rng.randbytes(16)),))
            packets.append((seal_with_key(bkey.key, bkey.epoch, 3, 0, 4, frame, counters), frame))
        history.append((bkey.epoch, bkey.key, packets))
    assert len({key.bytes_ for _e, key, _p in history}) == 110  # independent keys

    later_attempts = later_opened = 0
    for idx in (0, 37, 61, 108):
        _epoch, leaked_key, own_packets = history[idx]
        for packet, frame in own_packets:
            # sanity: harness must be able to open traffic it holds the key for
            assert open_with_key(leaked_key, ReplayWindow(), packet) == frame
        for _e2, _k2, packets in history[idx + 1 :]:
            for packet, _frame in packets:
                later_attempts += 1
                try:
                    open_with_key(leaked_key, ReplayWindow(), packet)
                except AuthError:
                    continue
                later_opened += 1
    assert later_attempts >= 100
    assert later_opened == 0

    # Scenario-level: an eavesdropper holding one leaked epoch key reads that
    # epoch alone even though it recorded the whole run.
    report, _ = run_scenario(resolve_scenario("eavesdrop_keyleak"))
    spied = report["adversary"]["eavesdrop"]
    assert report["broadcast"]["epochs_reached"] >= 4
    assert spied["leaked_epochs"] == [1]
    assert spied["recovered_packets"] > 0
    assert set(spied["recovered_by_epoch"]) == {"1"}
    assert set(spied["observed_by_epoch"]) > {"1"}
    print(
        f"PASS forward secrecy: 0/{later_attempts} later-epoch packets opened across "
        f"110 rotations; leaked-key eavesdropper confined to epoch 1 "
        f"({spied['recovered_packets']} of {spied['observed_packets']} observed)"
    )


# ---------------------------------------------------------------------------
# seal integrity under corruption


# Public AES-256-GCM vectors: (key, iv, plaintext, aad, ciphertext, tag).
_GCM_VECTORS = (
    ("00" * 32, "00" * 12, "", "", "", "530f8afbc74536b9a963b4f1c4cb738b"),
    (
        "00" * 32,
        "00" * 12,
        "00" * 16,
        "",
        "cea7403d4d606b6e074ec5d3baf39d18",
        "d0d1c8a799996bf0265b98b5d48ab919",
    ),
    (
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        "",
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
        "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
        "b094dac5d93471bdec1a502270e3cc6c",
    ),
    (
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
        "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        "76fc6ece0f4e1768cddf8853bb2d551b",
    ),
)


def test_corrupted_packets_are_rejected_and_never_decode():
    for key_h, iv_h, pt_h, aad_h, ct_h, tag_h in _GCM_VECTORS:
        key = crypto.SymmetricKey(bytes.fromhex(key_h), crypto.KeyPurpose.BROADCAST)
        box = crypto.aead_seal(key, bytes.fromhex(iv_h), bytes.fromhex(pt_h), bytes.fromhex(aad_h))
        assert box.ciphertext == bytes.fromhex(ct_h)
        assert box.tag == bytes.fromhex(tag_h)

    rng = random.Random(2424)
    key = crypto.SymmetricKey(rng.randbytes(32), crypto.KeyPurpose.BROADCAST)
    counters = PacketCounters()
    sealed = []
    for seq in range(40):
        frame = Frame(
            messages=(TelemetryMessage(rng.randrange(256), 77, rng.randbytes(rng.randint(0, 48))),)
        )
        sealed.append((seal_with_key(key, 5, 77, seq, 6, frame, counters), frame))

    VERSION_BYTE, HOP_BYTE = 0, 11
    flips = rejected = 0
    while flips < 1100:
        packet, _frame = sealed[rng.randrange(len(sealed))]
        raw = bytearray(packet.to_bytes())
        pos = rng.randrange(len(raw))
        if pos in (VERSION_BYTE, HOP_BYTE):
            continue
        raw[pos] ^= 1 << rng.randrange(8)
        flips += 1
        try:
            mutated = WirePacket.from_bytes(bytes(raw))
            open_with_key(key, ReplayWindow(), mutated)
        except (AuthError, ReplayError):
            rejected += 1
    assert rejected == flips

    truncations = cut_rejected = 0
    for _ in range(100):
        packet, _frame = sealed[rng.randrange(len(sealed))]
        raw = packet.to_bytes()
        cut = rng.randrange(1, len(raw))
        truncations += 1
        try:
            mutated = WirePacket.from_bytes(raw[:cut])
            open_with_key(key, ReplayWindow(), mutated)
        except (ValidationError, AuthError, ReplayError):
            cut_rejected += 1
    assert cut_rejected == truncations

    # The two excluded bytes, separately: the version byte is refused before
    # any crypto runs, and the hop byte sits outside the seal on purpose so
    # relays can decrement it without re-encrypting.
    packet, frame = sealed[0]
    raw = bytearray(packet.to_bytes())
    raw[VERSION_BYTE] ^= 0x10
    try:
        WirePacket.from_bytes(bytes(raw))
        raise AssertionError("unknown version accepted")
    except ValidationError:
        pass
    for bit in range(8):
        raw = bytearray(packet.to_bytes())
        raw[HOP_BYTE] ^= 1 << bit
        assert open_with_key(key, ReplayWindow(), WirePacket.from_bytes(bytes(raw))) == frame

    print(
        f"PASS seal integrity: {rejected}/{flips} bit corruptions and "
        f"{cut_rejected}/{truncations} truncations rejected, 0 decoded; "
        f"{len(_GCM_VECTORS)} cipher known answers bit-exact"
    )


# ---------------------------------------------------------------------------
# replay defense


def test_replayed_packets_never_deliver_twice():
    rng = random.Random(31)
    source = BroadcastKeySource(key_lifetime_s=5.0)
    ring = KeyRing()
    ring.install(source.new_epoch(rng, 0.0), 0.0, 1.0)
    counters = PacketCounters()
    frame = Frame(messages=(TelemetryMessage(1, 9, b"position"),))
    packet = seal_packet(ring, 9, 0, 4, frame, counters)

    window = ReplayWindow()
    assert open_packet(ring, window, packet, now=0.5) == frame
    try:
        open_packet(ring, window, packet, now=0.6)
        raise AssertionError("verbatim replay decoded twice")
    except ReplayError:
        pass

    # After rotation plus grace the old epoch is gone entirely.
    ring.install(source.new_epoch(rng, 5.0), 5.0, 1.0)
    try:
        open_packet(ring, ReplayWindow(), packet, now=7.0)
        raise AssertionError("replay accepted after its epoch was retired")
    except UnknownEpoch:
        pass

    report, _ = run_scenario(resolve_scenario("replay_attack"))
    replay = report["adversary"]["replay"]
    assert replay["injections"] >= 1000
    assert replay["duplicate_deliveries"] == 0
    assert replay["delivered_new"] == 0  # every injected copy was seen before, its origin's too
    assert report["delivery"]["duplicate_deliveries"] == 0
    assert replay["rejected"].get("ReplayError", 0) > 0
    assert replay["rejected"].get("UnknownEpoch", 0) > 0  # post-rotation injections
    assert report["conservation"]["balanced"]
    print(
        f"PASS replay defense: {replay['injections']} injections, 0 duplicate deliveries "
        f"(rejections: {replay['rejected']})"
    )


# ---------------------------------------------------------------------------
# flooding vs graph-search oracle


def _disc_adjacency(positions, radius):
    adj = {nid: set() for nid in positions}
    for a, pa in positions.items():
        for b, pb in positions.items():
            if a < b and math.hypot(pa[0] - pb[0], pa[1] - pb[1]) <= radius:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def _bfs_depths(adj, start):
    depth = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt
    return depth


def _run_flood_trial(trial: int, jitter_s: float):
    """One random connected graph, one flooded message, checked against
    breadth-first reachability capped by the hop budget."""
    RADIO = 300.0  # short link's reach; the long link carries control only
    rng = random.Random(60_000 + trial)
    n = rng.randint(4, 10)
    side = 150.0 + 80.0 * n
    while True:
        positions = {i + 1: (rng.uniform(0.0, side), rng.uniform(0.0, side)) for i in range(n)}
        adj = _disc_adjacency(positions, RADIO)
        if len(_bfs_depths(adj, 1)) == n:
            break
    hop_limit = rng.randint(1, 3)
    sender = rng.choice(sorted(positions))
    sc = scenario_from_dict(
        {
            "name": f"flood_oracle_{trial}",
            "seed": 90_000 + trial,
            "duration_s": 8.0,
            "mode": "mesh",
            "nodes": [
                {"id": nid, "role": "gcs" if nid == 1 else "uav", "position": list(pos)}
                for nid, pos in sorted(positions.items())
            ],
            "links": {
                "wifi24": {"band": "wifi24", "loss_prob": 0.0},
                "subghz": {
                    "band": "subghz",
                    "loss_prob": 0.0,
                    "duty_cycle_limit": 1.0,
                    "duty_window_s": 3600.0,
                },
            },
            "protocol": {"hop_limit": hop_limit, "forward_jitter_max_s": jitter_s},
            "traffic": {
                "senders": [sender],
                "rate_hz": 1.0,
                "payload_bytes": 16,
                "start_s": 4.0,
                "stop_s": 5.0,
            },
            "link_policy": {"hysteresis_s": 0.0},
        }
    )
    sim = Simulation(sc)
    report = sim.run()
    assert report["handshakes"]["all_established"] is True
    assert report["traffic"]["messages_originated"] == 1
    assert list(sim.audit.sent) == [sender] and len(sim.audit.sent[sender]) == 1

    depths = _bfs_depths(adj, sender)
    oracle = {nid for nid, d in depths.items() if 0 < d <= hop_limit + 1}
    (reach,) = sim.audit.reach[sender]
    reached = {node for node, bit in sim.audit.node_bits.items() if reach & bit}
    assert sim.audit.duplicate_deliveries == 0

    data_tx = report["links"]["per_link_data_tx"]
    assert data_tx.get("subghz", 0) == 0  # floods stay on the data link
    total_data_tx = sum(data_tx.values())
    assert total_data_tx <= n * (hop_limit + 1)
    assert total_data_tx <= n  # dedup: nobody rebroadcasts the same flood twice
    return reached, oracle, depths, sender, n


def test_flood_delivery_matches_breadth_first_oracle():
    # With rebroadcast jitter off, every first arrival rides a shortest path,
    # so the delivered set must equal reachability within the hop budget
    # exactly. Jitter can only delay a copy, never conjure a new path, so the
    # jittered runs below still may not overshoot the oracle.
    started = time.perf_counter()
    multi_hop = truncated = 0
    for trial in range(100):
        reached, oracle, depths, sender, _n = _run_flood_trial(trial, jitter_s=0.0)
        assert reached == oracle
        if max(depths.values()) > 1:
            multi_hop += 1
        if oracle != set(depths) - {sender}:
            truncated += 1
    assert multi_hop >= 20  # the sweep must actually exercise relaying
    assert truncated >= 10  # and the hop budget must bite somewhere

    capped = 0
    for trial in range(30):
        reached, oracle, _depths, _sender, _n = _run_flood_trial(trial, jitter_s=0.010)
        assert reached <= oracle
        if reached != oracle:
            capped += 1  # a late copy burned hops; allowed, just counted
    elapsed = time.perf_counter() - started
    print(
        f"PASS flood oracle: 100/100 random graphs match reachability search exactly "
        f"({multi_hop} multi-hop, {truncated} hop-capped); 30/30 jittered runs within "
        f"the oracle ({capped} shy of it) in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# frame packing vs first-fit oracle


def _first_fit_counts(payload_sizes, capacity):
    """Reference packing: walk in order, close the group when the next
    message does not fit or the per-frame message cap is reached."""
    groups = []
    current = 0
    used = 1  # leading count byte
    for size in payload_sizes:
        need = 4 + size  # id byte, source pair, length byte, payload
        if current and (used + need > capacity or current == 255):
            groups.append(current)
            current = 0
            used = 1
        current += 1
        used += need
    if current:
        groups.append(current)
    return groups


def test_frame_packing_matches_first_fit_reference():
    rng = random.Random(777)
    trials = 0
    for _ in range(300):
        mtu = rng.randint(64, 1500)
        cap = frame_capacity(mtu)
        max_payload = min(255, cap - 5)
        count = rng.randint(1, 400)
        sizes = [
            rng.randint(0, max_payload if rng.random() < 0.3 else min(12, max_payload))
            for _ in range(count)
        ]
        messages = [TelemetryMessage(i % 251, 42, bytes(s)) for i, s in enumerate(sizes)]
        frames = compose_frames(messages, mtu)
        assert [len(f.messages) for f in frames] == _first_fit_counts(sizes, cap)
        assert [m for f in frames for m in f.messages] == messages  # order kept
        for f in frames:
            assert f.serialized_len() <= cap
            assert Frame.from_bytes(f.to_bytes()) == f
        trials += 1

    # Field bound: 255 payload bytes is the ceiling, 256 must be refused.
    big = TelemetryMessage(1, 2, bytes(255))
    assert Frame.from_bytes(Frame(messages=(big,)).to_bytes()).messages[0] == big
    try:
        TelemetryMessage(1, 2, bytes(256))
        raise AssertionError("payload over the wire field limit accepted")
    except ValidationError:
        pass
    # A message too big for the link's frame budget is refused, not split.
    try:
        compose_frames([TelemetryMessage(1, 2, bytes(26))], 64)
        raise AssertionError("oversized message packed")
    except MessageTooLarge:
        pass
    print(f"PASS frame packing: {trials}/300 randomized batches match the reference packer")


# ---------------------------------------------------------------------------
# duty-cycle compliance


def test_airtime_never_exceeds_duty_budget_in_any_window():
    sc = resolve_scenario("duty_cycle_stress")
    sim = Simulation(sc)
    # Every metered burst, (start, airtime), as each node's meter records it.
    bursts_by_pair = defaultdict(list)
    for node_id, node in sim.nodes.items():
        for link_name, meter in node.meters.items():
            def record(now, airtime, record=meter.record, key=(node_id, link_name)):
                bursts_by_pair[key].append((now, airtime))
                record(now, airtime)
            meter.record = record
    report = sim.run()

    windows_checked = 0
    worst = 0.0
    for (node_id, link_name), bursts in bursts_by_pair.items():
        profile = sc.links[link_name]
        budget = profile.duty_cycle_limit * profile.duty_window_s
        window = profile.duty_window_s
        recomputed_max = 0.0
        for t_end, _a in bursts:
            in_window = sum(a for t, a in bursts if t_end - window < t <= t_end)
            assert in_window <= budget  # no tolerance
            recomputed_max = max(recomputed_max, in_window / budget)
            windows_checked += 1
        reported = report["duty_cycle"][f"{node_id}:{link_name}"]["max_window_utilization"]
        assert abs(reported - recomputed_max) <= 1e-9
        worst = max(worst, recomputed_max)

    assert windows_checked > 0
    assert report["links"]["deferrals"] > 0  # the limiter actually engaged
    assert report["conservation"]["balanced"]
    print(
        f"PASS duty cycle: {windows_checked} window positions audited, "
        f"peak utilization {worst:.4f} of budget, {report['links']['deferrals']} deferrals"
    )


# ---------------------------------------------------------------------------
# failover vs riding the degraded link


def test_adaptive_failover_never_loses_to_pinned_degraded_link():
    base = resolve_scenario("link_failover")
    degraded = base.link_events[0].link
    pinned_policy = LinkPolicySpec(pinned_link=degraded)
    adaptive_sum = pinned_sum = 0.0
    for step in range(20):
        seed = 7_000 + step
        adaptive, _ = run_scenario(replace(base, seed=seed))
        pinned, _ = run_scenario(
            replace(base, seed=seed, link_policy=pinned_policy)
        )
        for report in (adaptive, pinned):
            assert report["conservation"]["balanced"]
            assert report["conservation"]["tx_dropped"] == 0  # nothing lost to switching
        assert adaptive["links"]["switches"] >= 1
        a = adaptive["delivery"]["overall_ratio"]
        p = pinned["delivery"]["overall_ratio"]
        assert a >= p
        adaptive_sum += a
        pinned_sum += p
    assert adaptive_sum / 20 > pinned_sum / 20
    print(
        f"PASS failover: adaptive delivery {adaptive_sum / 20:.3f} vs "
        f"{pinned_sum / 20:.3f} pinned to the degraded link, 20/20 seeds not worse, "
        "all runs conserved every packet"
    )


# ---------------------------------------------------------------------------
# topology comparison


def test_mesh_beats_star_relay_on_peer_latency_and_survives_relay_loss():
    base = resolve_scenario("star_vs_mesh")
    mesh_means = []
    star_means = []
    for step in range(20):
        seed = 8_100 + step
        mesh_report, _ = run_scenario(replace(base, mode="mesh", seed=seed))
        star_report, _ = run_scenario(replace(base, mode="star", seed=seed))
        m = mesh_report["latency_uav_to_uav"]
        s = star_report["latency_uav_to_uav"]
        assert m["count"] > 0 and s["count"] > 0
        assert m["mean_s"] < s["mean_s"]
        mesh_means.append(m["mean_s"])
        star_means.append(s["mean_s"])

    # With the hub dead from the start, star peers deliver nothing at all.
    nodes = tuple(
        replace(n, down_at_s=0.0) if n.role == "gcs" else n for n in base.nodes
    )
    orphaned, _ = run_scenario(replace(base, mode="star", nodes=nodes, seed=4242))
    peers = orphaned["delivery"]["uav_to_uav"]
    assert peers["sent"] > 0
    assert peers["delivered"] == 0
    assert peers["ratio"] == 0.0
    print(
        f"PASS topology: mesh peer latency below star relay in 20/20 seeds "
        f"(means {sum(mesh_means) / 20 * 1e3:.2f}ms vs {sum(star_means) / 20 * 1e3:.2f}ms); "
        "star with the hub down delivered 0 peer messages"
    )


# ---------------------------------------------------------------------------
# determinism and runtime of everything shipped


def test_every_shipped_scenario_reruns_byte_identical():
    started = time.perf_counter()
    for name in SHIPPED_SCENARIOS:
        sc = resolve_scenario(name)
        report_a, trace_a = run_scenario(sc)
        report_b, trace_b = run_scenario(sc)
        assert render_json(report_a) == render_json(report_b), name
        assert trace_a == trace_b, name
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"PASS determinism: {len(SHIPPED_SCENARIOS)} scenarios double-run byte-identical "
        f"in {elapsed:.1f}s"
    )
