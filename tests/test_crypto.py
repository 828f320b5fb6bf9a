"""Primitive-layer tests: key agreement, signatures, KDF, AEAD.

The AES-256-GCM known-answer vectors are the four standard AES-256 test
cases circulated with the original GCM submission; they were cross-checked
against an independent from-scratch GCM implementation before being frozen
here. Everything else is behavioral.
"""

import collections
import copy
import pickle
import random
import types

import pytest

from swarmlink import crypto
from swarmlink.cli import resolve_scenario
from swarmlink.errors import AuthError, EmptyContext, InvalidPoint, ValidationError
from swarmlink.sim import run_scenario

# AES-256-GCM known-answer vectors (key, iv, plaintext, aad, ciphertext, tag), hex.
GCM_KATS = [
    # zero key / zero iv / empty plaintext
    (
        "00" * 32,
        "00" * 12,
        "",
        "",
        "",
        "530f8afbc74536b9a963b4f1c4cb738b",
    ),
    # zero key / zero iv / one zero block
    (
        "00" * 32,
        "00" * 12,
        "00" * 16,
        "",
        "cea7403d4d606b6e074ec5d3baf39d18",
        "d0d1c8a799996bf0265b98b5d48ab919",
    ),
    # four-block message, no aad
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
    # truncated message with aad
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
]


@pytest.mark.parametrize("key,iv,pt,aad,ct,tag", GCM_KATS)
def test_aead_known_answers(key, iv, pt, aad, ct, tag):
    k = crypto.SymmetricKey(bytes.fromhex(key), crypto.KeyPurpose.BROADCAST)
    box = crypto.aead_seal(k, bytes.fromhex(iv), bytes.fromhex(pt), bytes.fromhex(aad))
    assert box.ciphertext.hex() == ct
    assert box.tag.hex() == tag
    back = crypto.aead_open(k, bytes.fromhex(iv), box, bytes.fromhex(aad))
    assert back == bytes.fromhex(pt)


def test_keypair_from_seed_deterministic():
    a = crypto.keypair_from_seed(b"\x07" * 32, "agreement")
    b = crypto.keypair_from_seed(b"\x07" * 32, "agreement")
    assert a.public_point == b.public_point
    assert a.private_scalar == b.private_scalar
    c = crypto.keypair_from_seed(b"\x08" * 32, "agreement")
    assert c.public_point != a.public_point


def test_keypair_seed_length_checked():
    with pytest.raises(ValueError):
        crypto.keypair_from_seed(b"short", "agreement")
    with pytest.raises(ValueError):
        crypto.keypair_from_seed(b"\x00" * 31, "signature")


def test_ecdh_agreement_symmetric():
    rng = random.Random(42)
    for _ in range(16):
        a = crypto.keypair_from_seed(rng.randbytes(32), "agreement")
        b = crypto.keypair_from_seed(rng.randbytes(32), "agreement")
        s1 = crypto.ecdh_shared_secret(a, b.public_point)
        s2 = crypto.ecdh_shared_secret(b, a.public_point)
        assert s1 == s2
        assert len(s1) == 32


def test_ecdh_rejects_bad_points():
    a = crypto.keypair_from_seed(b"\x01" * 32, "agreement")
    with pytest.raises(InvalidPoint):
        crypto.ecdh_shared_secret(a, b"\x00" * 31)
    # all-zero point is the curve's low-order degenerate case
    with pytest.raises(InvalidPoint):
        crypto.ecdh_shared_secret(a, b"\x00" * 32)


def test_sign_verify_roundtrip_and_tamper():
    kp = crypto.keypair_from_seed(b"\x05" * 32, "signature")
    msg = b"telemetry channel bring-up"
    sig = crypto.sign(kp, msg)
    assert len(sig) == crypto.SIGNATURE_LEN
    assert crypto.verify(kp.public_key, msg, sig)
    assert not crypto.verify(kp.public_key, msg + b"x", sig)
    assert not crypto.verify(kp.public_key, msg, sig[:-1] + bytes([sig[-1] ^ 1]))
    other = crypto.keypair_from_seed(b"\x06" * 32, "signature")
    assert not crypto.verify(other.public_key, msg, sig)


def test_a_key_pair_is_parsed_once_when_built_and_never_by_sign_or_agreement(monkeypatch):
    """In one run, each private key kind is parsed exactly as often as
    keypair_from_seed builds a pair of that kind."""
    parsed, built, used = collections.Counter(), collections.Counter(), collections.Counter()

    def counted(counter, name, call):
        def wrapper(*args):
            counter[name] += 1
            return call(*args)
        return wrapper

    for cls in (crypto.Ed25519PrivateKey, crypto.X25519PrivateKey):
        stand_in = types.SimpleNamespace(from_private_bytes=counted(parsed, cls.__name__, cls.from_private_bytes))
        monkeypatch.setattr(crypto, cls.__name__, stand_in)
    keypair_from_seed = crypto.keypair_from_seed
    monkeypatch.setattr(crypto, "keypair_from_seed", lambda seed, kind: counted(built, kind, keypair_from_seed)(seed, kind))
    monkeypatch.setattr(crypto, "sign", counted(used, "sign", crypto.sign))
    monkeypatch.setattr(crypto, "ecdh_shared_secret", counted(used, "ecdh", crypto.ecdh_shared_secret))
    report, _trace = run_scenario(resolve_scenario("mesh_5_lossless"))
    assert report["delivery"]["overall_ratio"] > 0
    assert used["sign"] > 0 and used["ecdh"] > 0
    assert parsed == {"Ed25519PrivateKey": built["signature"], "X25519PrivateKey": built["agreement"]}


def test_key_pairs_copy_and_pickle_with_a_fresh_parsed_key_and_keep_it_out_of_repr():
    agree = crypto.keypair_from_seed(b"\x07" * 32, "agreement")
    peer = crypto.keypair_from_seed(b"\x08" * 32, "agreement")
    signer = crypto.keypair_from_seed(b"\x05" * 32, "signature")
    shared = crypto.ecdh_shared_secret(peer, agree.public_point)
    for twin in (copy.copy(agree), copy.deepcopy(agree), pickle.loads(pickle.dumps(agree))):
        assert twin == agree and hash(twin) == hash(agree) and twin._private is not agree._private
        assert crypto.ecdh_shared_secret(twin, peer.public_point) == shared
    for twin in (copy.copy(signer), copy.deepcopy(signer), pickle.loads(pickle.dumps(signer))):
        assert twin == signer and hash(twin) == hash(signer) and twin._private is not signer._private
        assert crypto.verify(signer.public_key, b"m", crypto.sign(twin, b"m"))
    for pair, private in ((agree, agree.private_scalar), (signer, signer.private_key)):
        text = repr(pair)
        assert private.hex() not in text and repr(private) not in text and "_private" not in text


def test_verify_never_raises_on_garbage():
    kp = crypto.keypair_from_seed(b"\x05" * 32, "signature")
    assert crypto.verify(kp.public_key, b"m", b"") is False
    assert crypto.verify(kp.public_key, b"m", b"\x00" * 64) is False
    assert crypto.verify(b"\x00" * 32, b"m", b"\x01" * 64) is False


def test_derive_key_context_separation():
    shared = b"\xaa" * 32
    k1 = crypto.derive_key(shared, b"ctx-one", "session")
    k2 = crypto.derive_key(shared, b"ctx-two", "session")
    k3 = crypto.derive_key(shared, b"ctx-one", "session")
    assert k1.bytes_ != k2.bytes_
    assert k1.bytes_ == k3.bytes_
    assert len(k1.bytes_) == crypto.KEY_LEN
    with pytest.raises(EmptyContext):
        crypto.derive_key(shared, b"", "session")


def test_aead_roundtrip_and_tamper():
    k = crypto.SymmetricKey(b"\x11" * 32, crypto.KeyPurpose.SESSION)
    nonce = b"\x02" * 12
    box = crypto.aead_seal(k, nonce, b"payload bytes", b"header")
    assert crypto.aead_open(k, nonce, box, b"header") == b"payload bytes"
    bad_ct = crypto.AeadBox(bytes([box.ciphertext[0] ^ 1]) + box.ciphertext[1:], box.tag)
    with pytest.raises(AuthError):
        crypto.aead_open(k, nonce, bad_ct, b"header")
    bad_tag = crypto.AeadBox(box.ciphertext, box.tag[:-1] + bytes([box.tag[-1] ^ 1]))
    with pytest.raises(AuthError):
        crypto.aead_open(k, nonce, bad_tag, b"header")
    with pytest.raises(AuthError):
        crypto.aead_open(k, nonce, box, b"other header")
    with pytest.raises(AuthError):
        crypto.aead_open(k, b"\x03" * 12, box, b"header")


def test_aead_empty_aad_equals_none():
    k = crypto.SymmetricKey(b"\x11" * 32, crypto.KeyPurpose.SESSION)
    nonce = b"\x00" * 12
    with_empty = crypto.aead_seal(k, nonce, b"x", b"")
    with_none = crypto.aead_seal(k, nonce, b"x", None)
    assert with_empty.tag == with_none.tag


def test_aead_box_serialization():
    box = crypto.AeadBox(b"abc", b"\x01" * 16)
    assert crypto.AeadBox.from_bytes(box.to_bytes()) == box
    with pytest.raises(ValidationError) as short:
        crypto.AeadBox.from_bytes(b"\x00" * 15)  # shorter than a tag
    assert short.value.field == "box"
    with pytest.raises(ValidationError):
        crypto.AeadBox(b"abc", b"\x01" * 15)


def test_symmetric_key_equality_hash_and_repr_ignore_its_cipher_context():
    a = crypto.SymmetricKey(b"\x11" * 32, crypto.KeyPurpose.SESSION)
    b = crypto.SymmetricKey(b"\x11" * 32, crypto.KeyPurpose.SESSION)
    assert a._aead is not b._aead  # each key builds its own context
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "SymmetricKey(purpose=session)"
    assert a != crypto.SymmetricKey(b"\x12" * 32, crypto.KeyPurpose.SESSION)
    assert a != crypto.SymmetricKey(b"\x11" * 32, crypto.KeyPurpose.BROADCAST)
    assert len({a, b}) == 1


def test_symmetric_key_checks_its_length_before_building_a_context():
    for size in (0, 16, 24, 31, 33):  # 16 and 24 would make valid AES keys
        with pytest.raises(ValueError, match="32 bytes"):
            crypto.SymmetricKey(b"\x11" * size)


def test_seal_and_open_reuse_the_keys_context(monkeypatch):
    k = crypto.SymmetricKey(b"\x11" * 32, crypto.KeyPurpose.SESSION)
    built = []
    monkeypatch.setattr(crypto, "AESGCM", built.append)  # any new context shows here
    for i in range(3):
        nonce = bytes([i]) * 12
        box = crypto.aead_seal(k, nonce, b"frame %d" % i, b"aad")
        assert crypto.aead_open(k, nonce, box, b"aad") == b"frame %d" % i
    assert built == []


def test_symmetric_key_copies_and_pickles_with_a_fresh_context():
    k = crypto.SymmetricKey(b"\x11" * 32, crypto.KeyPurpose.BROADCAST)
    box = crypto.aead_seal(k, b"\x05" * 12, b"payload", b"aad")
    for twin in (copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
        assert twin == k and twin.purpose is crypto.KeyPurpose.BROADCAST
        assert crypto.aead_open(twin, b"\x05" * 12, box, b"aad") == b"payload"
    null = crypto.aead_seal(crypto.NULL_KEY, b"\x05" * 12, b"payload", b"aad")
    assert (null.ciphertext, null.tag) == (b"payload", bytes(crypto.TAG_LEN))
    null_key = crypto.NULL_KEY
    for twin in (copy.copy(null_key), copy.deepcopy(null_key), pickle.loads(pickle.dumps(null_key))):
        assert twin == null_key and twin._aead is crypto._NULL_CIPHER
        assert crypto.aead_open(twin, b"\x05" * 12, crypto.AeadBox(b"payload", b"\xff" * 16), b"") == b"payload"
