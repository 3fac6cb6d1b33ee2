"""Golden SHA-256 digests of seeded outputs.

Two families are pinned:

* the CLI's ``run`` (text and JSON), ``sweep`` and ``bell`` output for the
  three bundled scenarios, with exit code and stderr;
* a protocol x Eve x source matrix of session transcripts: ``to_dict()``
  (which includes ``eve_known_mask``), one digest per protocol.  A case
  that raises is hashed as its exception type and message.

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
    "bb84": "d0c63c4745e7b7c676243cc3415e5cf311e7eae73597f59c59ba13f4901c3567",
    "b92": "026d3f08521fdd6dfdb405c01fe8f4691cb5a8ef8b8d9e3e8c58c620a7d504db",
    "six_state":
        "a71526d9ed1c4966f5261afc834db756ae8321d856c367a3b88eb17f6d337f80",
    "sarg": "59b494d2ba2cb8a1da4fc895821d0e9483e4d60d594c62c17b25b4c2d704438e",
    "decoy_bb84":
        "d52e322b17b3d02311a03251a47131a99018869ce10e68f394af533bb75a6a45",
    "bbm92": "874aac065436db2ccb8c3c96ba1cc9b3da642b07735f7b024ae3a44019dea1e5",
    "e91": "a38aa8047b5ed2c9f8b5a5777a4e3a233bf0fccbed4efed38c0f1cae2fdab42c",
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
