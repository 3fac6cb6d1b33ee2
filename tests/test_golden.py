"""Golden SHA-256 digests of seeded outputs.

Two families are pinned:

* the CLI's ``run`` (text and JSON), ``sweep`` and ``bell`` output for the
  three bundled scenarios, with exit code and stderr;
* a protocol x Eve x source matrix of session transcripts: ``to_dict()``
  plus every ``EveRecord`` array (dtype, shape and bytes), one digest per
  protocol.  A case that raises is hashed as its exception type and
  message.

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
    EveStrategy("intercept_resend", basis_policy="fixed_basis", fixed_basis=1),
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
        "ecd9bd586d158ffd8731ab5ef0909bf893dc4793248413c950ed748d3751b314",
    "run e91_honest.cfg json":
        "68067378f1ad68492190cf78334aa439279a95a848d124836dd072a64b05af05",
    "sweep e91_honest.cfg":
        "d6dc61b2aea20cd704c879b796c070497427de38cef80b78cabd3b9a47fb6b06",
    "bell e91_honest.cfg":
        "08169fa91669177e7ee541cd8674258a6460319ecc71ad46df275e4e46c2fd6c",
}

GOLDEN_TRANSCRIPTS = {
    "bb84": "3d3b54740953c1555a619a2010a82d44793b04dd6eeed19d8fdb92b4aaccd4d7",
    "b92": "40cb1cf5c01f257c547d5fefc29842f179097877ebefd92346c66ccb2580b90d",
    "six_state":
        "b86a2acb4ee8d767faa5fad8f9a03c06557a274e7a83d5ad34790cc35ac0f347",
    "sarg": "79b026718eadbcdc5d3b1fece8af2c84dcc04f2103e1112ba9f9d6f1b3ace9d9",
    "decoy_bb84":
        "bcef46d509ea295014599bb3123345f9769f4629b2da7f39ce96b651b13c379f",
    "bbm92": "1c99a9f21153dc94fc1488a4a1e6062d39a81729d0a24d0d01ba4964068ebc0e",
    "e91": "390d128800a0d4cb06164433f0e71516817217039f4f796e555869299a028ec5",
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
    parts = [json.dumps(t.to_dict(), sort_keys=True).encode()]
    rec = t.eve_record
    if rec is not None:
        parts.append(str(rec.pulse_count).encode())
        for field in ("measured_basis", "measured_bit", "stored_photon",
                      "conclusive", "known_bit"):
            arr = getattr(rec, field)
            if arr is None:
                parts.append(f"{field}=None".encode())
            else:
                parts.append(f"{field}:{arr.dtype.str}:{arr.shape}".encode())
                parts.append(arr.tobytes())
    return b"\x00".join(parts)


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
