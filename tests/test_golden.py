"""Golden SHA-256 digests of seeded outputs.

Three families are pinned:

* the CLI's ``run`` (text and JSON), ``sweep`` and ``bell`` output for the
  three bundled scenarios, with exit code and stderr;
* a protocol x Eve x source matrix of session transcripts, one digest per
  protocol over ``to_dict()``: the sifted keys and Eve's known bits of
  them as hex, the pulse, detection and sift counts, the decoy intensity
  statistics and E91's CHSH count and sum per setting pair.  A case that
  raises is hashed as its exception type and message;
* the same transcripts at a size that spans several sampler chunks, so
  that drawing in chunks is pinned to drawing whole arrays.

A refactor that keeps seeded outputs byte-identical leaves every digest
unchanged; an intended output change re-records them here and says so in
CHANGES.md.  The digests depend on numpy's Generator streams and were
recorded with numpy 2.4.
"""

import hashlib
import json

from qkdsim.adversary import EveStrategy
from qkdsim.cli import main
from qkdsim.protocols import PROTOCOLS, ProtocolConfig, run_session
from qkdsim.quantum import ChannelModel, DetectorModel, SourceModel
from qkdsim.rng import derive_rng

BUNDLED = ("bb84_honest.cfg", "bb84_intercept.cfg", "e91_honest.cfg")

EVES = (
    EveStrategy("none"),
    EveStrategy("intercept_resend"),
    EveStrategy("intercept_resend", fixed_basis=1),
    EveStrategy("beam_split"),
    EveStrategy("pns", block_single_prob=0.3),
    EveStrategy("usd_b92"),
)
SOURCES = (SourceModel.ideal(), SourceModel.laser(0.5),
           SourceModel.heralded(0.6, 0.05))
# protocols whose basis choice is biased by ProtocolConfig.basis_bias
BIASED = ("bb84", "six_state", "sarg", "decoy_bb84", "bbm92")
# lossy (T ~ 0.25, below the B92 USD threshold), misaligned, dark counts
CHANNEL = ChannelModel(length_km=30.0, attenuation_db_per_km=0.2,
                       misalignment_error_prob=0.02)
DETECTOR = DetectorModel(efficiency=0.8, dark_prob=0.01)
PULSES = 1500

GOLDEN_CLI = {
    "run bb84_honest.cfg text":
        "cfdbb1471e34fb61c93ed560c7e8464519177189a4e7d804dfde78cbb8f1bc2b",
    "run bb84_honest.cfg json":
        "e662f3bddbb8ff7322d78d9e040fb2eaca25cd97d5d2143fff78b1e87caf1806",
    "sweep bb84_honest.cfg":
        "8f21cfbfb5bc77dfe4faa945bee0d8d809cecf9502383d14edec1f6b31937a7d",
    "bell bb84_honest.cfg":
        "130ed44d84417f2c3fed5525293cc91972390731bfb9463091f6b5348221daa9",
    "run bb84_intercept.cfg text":
        "0b5c9d564447118065d23ad72427f9812f42fb0e495fa0b7b5c0fcc664b92975",
    "run bb84_intercept.cfg json":
        "a815fa597e803ba0b85841bb4a0717bf701b41f7b007556f555c6b81891d4d7d",
    "sweep bb84_intercept.cfg":
        "4af24e38b828cb31214c960dd9e23f6ce7f8bb960f8c9062bcb446231dbc8713",
    "bell bb84_intercept.cfg":
        "130ed44d84417f2c3fed5525293cc91972390731bfb9463091f6b5348221daa9",
    "run e91_honest.cfg text":
        "3418998f9e5525a6a86a0dd0f872b67258ced5151f7a0dc9ec570161c5960a46",
    "run e91_honest.cfg json":
        "f1336558553414bae75c2a128688ba21a4f2249369960feaa5be58077b06a0a5",
    "sweep e91_honest.cfg":
        "d6dc61b2aea20cd704c879b796c070497427de38cef80b78cabd3b9a47fb6b06",
    "bell e91_honest.cfg":
        "da2c44a233713f5acc22c7729d1eb5b296f7290aae4430ddcaf1eee172bab3b7",
}

GOLDEN_TRANSCRIPTS = {
    "bb84": "7ccd9db8460fc817d5ba5dc115c54a50d2b43e8cfeb61dd4107859cead5ec25a",
    "b92": "faf9cd5934b05efe9f6d5c130778d0ae7420cfd4b5fe6c154b33ce539e6e7185",
    "six_state":
        "feff9f154ab7d978a1c135147c1a87903d3066553a6050f5a9f334b1d32551d6",
    "sarg": "860d33c391457471e7cfc5e040efe0e516dca8ea94641fc87c1f82ab98c9f5af",
    "decoy_bb84":
        "31ddab04c40b66f3e46a9ecae68ed4d0536fec1d93cca7bbd1aa0bac3c5035b3",
    "bbm92": "98807ffbc97e4e60b6f31defae11f79fee91889d9da4e6c94f2f91e64216a5d1",
    "e91": "7531ed94232deeb6404ec798538d27d2fa73ccab195ac1a60fc160b4ce0b3532",
}


def _cli_digest(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    blob = f"{code}\n{out.out}\n--stderr--\n{out.err}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _cli_cases():
    for name in BUNDLED:
        path = f"bundled:{name}"
        yield f"run {name} text", ["run", path]
        yield f"run {name} json", ["run", path, "--format", "json"]
        yield f"sweep {name}", ["sweep", path, "--pulses", "4000",
                                "--axis", "length_km", "--start", "0",
                                "--stop", "40", "--steps", "3"]
        yield f"bell {name}", ["bell", path, "--format", "json"]


def _transcript_blob(protocol, eve, src, bias) -> bytes:
    try:
        cfg = ProtocolConfig(protocol, PULSES, basis_bias=bias)
        t = run_session(cfg, src, CHANNEL, DETECTOR, eve, derive_rng(5, 0))
    except ValueError as exc:  # pinned as part of the seeded behaviour
        return f"{type(exc).__name__}: {exc}".encode()
    return json.dumps(t.to_dict(), sort_keys=True).encode()


def test_cli_outputs_match_golden_digests(capsys):
    got = {label: _cli_digest(capsys, argv) for label, argv in _cli_cases()}
    assert got == GOLDEN_CLI


def test_transcript_matrix_matches_golden_digests():
    got = {}
    for protocol in PROTOCOLS:
        h = hashlib.sha256()
        biases = (None, 0.7) if protocol in BIASED else (None,)
        for bias in biases:
            for eve in EVES:
                for src in SOURCES:
                    h.update(_transcript_blob(protocol, eve, src, bias))
                    h.update(b"\x01")
        got[protocol] = h.hexdigest()
    assert got == GOLDEN_TRANSCRIPTS


# Multi-chunk matrix: 150,001 pulses span several sampler chunks
# (quantum.CHUNK) plus a ragged tail, on a lossy, misaligned line with a
# noisy detector so that every sampler draws.  Cells are the protocol x
# source x Eve strategy combinations a session accepts (refused ones are
# left out; a change in what is refused changes the digest), plus one
# basis_bias cell.  One digest per protocol.
CHUNK_PULSES = 150_001
CHUNK_CHANNEL = ChannelModel(length_km=10.0, attenuation_db_per_km=0.2,
                             misalignment_error_prob=0.03)
CHUNK_DETECTOR = DetectorModel(0.5, 1e-3)
CHUNK_EVES = (EveStrategy("none"), EveStrategy("intercept_resend"),
              EveStrategy("beam_split"),
              EveStrategy("pns", block_single_prob=0.3),
              EveStrategy("usd_b92"))

GOLDEN_MULTI_CHUNK = {
    "bb84": "98a6a7d265132a41ad33c0d63e4a5ba979b230460258fead1f87568df2869022",
    "b92": "7e54a06f6b0fcad09fa0f43d95d969b5c136a772c162e0570523dab15ac37b17",
    "six_state":
        "6a5f138ca5143409b9187012526b64db1f5f8b96c8873e25377f6ce28502523b",
    "sarg": "34b0624e11cd8b3d882fee9452a7475bdba2fdd44776f6b9b015419697260718",
    "decoy_bb84":
        "ade8c5303e175bb15aa67b98864f3c650f95641f891d938f52385b1ec7edb70d",
    "bbm92": "a905d628f055d67a4ba0455b4e67404f668d86911fea5906e19ce3aa625fe3ad",
    "e91": "66b68705f3d056106c7c863db64cd870af63cbaa6ed63f5cda3627d5e3d230fb",
    "bb84 basis_bias":
        "3e0802318eed3efe445b100b743749d0897b11d43b8f7baa025454378a9f8fc3",
}


def _chunk_cells():
    for protocol in PROTOCOLS:
        for src in SOURCES:
            for eve in CHUNK_EVES:
                yield protocol, protocol, src, eve, None
    yield "bb84 basis_bias", "bb84", SourceModel.laser(0.5), EVES[1], 0.7


def test_multi_chunk_matrix_matches_golden_digests():
    got = {}
    for key, protocol, src, eve, bias in _chunk_cells():
        cfg = ProtocolConfig(protocol, CHUNK_PULSES, basis_bias=bias)
        try:
            t = run_session(cfg, src, CHUNK_CHANNEL, CHUNK_DETECTOR, eve,
                            derive_rng(11, 0))
        except ValueError:
            continue
        h = got.setdefault(key, hashlib.sha256())
        h.update(repr((src, eve)).encode())
        h.update(json.dumps(t.to_dict(), sort_keys=True).encode())
    assert {k: h.hexdigest() for k, h in got.items()} == GOLDEN_MULTI_CHUNK
