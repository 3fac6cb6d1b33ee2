"""Golden SHA-256 digests of seeded outputs.

Three families are pinned:

* the CLI's ``run`` (text and JSON), ``sweep`` and ``bell`` output for the
  three bundled scenarios, with exit code and stderr;
* a protocol x Eve x source matrix of session transcripts, one digest per
  protocol over ``to_dict()``: the sifted keys and Eve's known bits of
  them as hex, the pulse, detection and sift counts, the decoy intensity
  statistics and E91's CHSH count and sum per setting pair.  A case that
  raises is hashed as its exception type and message;
* the same transcripts at a size that spans several session slices
  (``quantum.CHUNK`` pulses each), which pins where slices begin and end
  and the order in which they draw.

A refactor that keeps seeded outputs byte-identical leaves every digest
unchanged.  The digests depend on numpy's Generator streams and were
recorded with numpy 2.4.  ``bell bb84_honest.cfg`` and ``bell
bb84_intercept.cfg`` are refusals, which draw nothing, so no change of a
stream moves them.

An intended output change re-records the digests it moves and names them
in CHANGES.md.  Run as a script (``python tests/test_golden.py``), this
file prints its three tables recomputed, ready to paste over the ones
below.
"""

import hashlib
import json

from digest_table import cli_digest, print_table
from qkdsim.adversary import EveStrategy
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
        "9cb7a50dc839346a67c7bf322f07b3248ff4e530c79a5856b6297a812abb4fd8",
    "run bb84_honest.cfg json":
        "b79542181b240fb0c5ff53f555a95d0833f79426ebd6b4902757f3ab2feea857",
    "sweep bb84_honest.cfg":
        "cb35c517f89e6417e24d94e4e8a5f1997d0955ede8fb08ac3c5a5e14446a23e2",
    "bell bb84_honest.cfg":
        "130ed44d84417f2c3fed5525293cc91972390731bfb9463091f6b5348221daa9",
    "run bb84_intercept.cfg text":
        "72c3e59a8eb84c207c8df0a8a6dba1dad381c812aa3cd1a504021ea72e23013e",
    "run bb84_intercept.cfg json":
        "3f354842bab3f82b73c328e3f62a0d41c3187d6dde5c5423fa0109fbaa8802db",
    "sweep bb84_intercept.cfg":
        "b7686462e3d452b7bba0e5fbbbda8eb7ce6f97bbf5ed7d2ae66a0f8343a2bb27",
    "bell bb84_intercept.cfg":
        "130ed44d84417f2c3fed5525293cc91972390731bfb9463091f6b5348221daa9",
    "run e91_honest.cfg text":
        "8fbaabedd65e7a8ab376522a7bcbf3027702379139438f3bf7f647d674a2135c",
    "run e91_honest.cfg json":
        "a92d21f00de03efa4768f180b7bcc332a04d853fce9bdb0cbcd87b992e0efd45",
    "sweep e91_honest.cfg":
        "bb19ea53e95b23f432085c5402b63fc9afaa8a65bfe28801280963520d1c3603",
    "bell e91_honest.cfg":
        "d0ab1ae11fb7d385e5b6dc80004c6bc94cb0e72c25c83eb8bfd42701e126651a",
}

GOLDEN_TRANSCRIPTS = {
    "bb84": "258cd578bb84e62d9cf5e4ebaa8faab18e85421029f556dc594017e3f3290f2e",
    "b92": "a280b02158a5aca8c4a55f7cb8f2b1301716ac6568504bee9f1637b667c11017",
    "six_state":
        "27296bc1a931f0ef624e589a51db18c0dcb2a99fdb37f9252f648a2c918ddb0b",
    "sarg": "6201e9869747d4e567b270c78541ef0ca0c19d0162967d59e136e940e3341211",
    "decoy_bb84":
        "1207d57a22fc16b40db7c9cd501ee442af7cea3002e2af53d69dcd41f11a405e",
    "bbm92":
        "39c2f60b2f5e6ce931ab8ef6bde143a7ebe0a9232160914984f6b52115d64707",
    "e91": "519e8a51e4a1668400892bf76f93bf88b026dbcff3ddbfa2f5557e2ea935f719",
}


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


def cli_digests() -> dict:
    return {label: cli_digest(argv) for label, argv in _cli_cases()}


def transcript_digests() -> dict:
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
    return got


def test_cli_outputs_match_golden_digests():
    assert cli_digests() == GOLDEN_CLI


def test_transcript_matrix_matches_golden_digests():
    assert transcript_digests() == GOLDEN_TRANSCRIPTS


# Multi-chunk matrix: 150,001 pulses span two full session slices
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
    "bb84": "e00add3f3ae6a984cdd273668ef670a3bbbdf21e53a51210bf5aaf982431424d",
    "b92": "d33730c4179a4172aadb23298d666d770697b8de54fd63cc8e3956a526816a9b",
    "six_state":
        "6510aabc74615b33c825ea9a81bd1af6f1dc0f86abeca740dd985fa9fa3a0c2c",
    "sarg": "1a761ad60a9f218f354f57492cffc283ebbf70a08d38a0123090435dbf9e65d0",
    "decoy_bb84":
        "b32c2775fcad2f745af559d8e552f826dc8eb8708665b6e3aefcbd86602db50f",
    "bbm92":
        "08841e3df06b165e1ddbcc12df30e03f876d4aef44d1e025ac0998ad9d26beab",
    "e91": "0c10ea6a8c2f3290a21074fd3dfef94867b8c4e1b0c20739baf63f54101f45f1",
    "bb84 basis_bias":
        "7883248fa9a76b2cfed45b2a60d861bbf49fbf50d3d87503836ff83dd49c6434",
}


def _chunk_cells():
    for protocol in PROTOCOLS:
        for src in SOURCES:
            for eve in CHUNK_EVES:
                yield protocol, protocol, src, eve, None
    yield "bb84 basis_bias", "bb84", SourceModel.laser(0.5), EVES[1], 0.7


def multi_chunk_digests() -> dict:
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
    return {k: h.hexdigest() for k, h in got.items()}


def test_multi_chunk_matrix_matches_golden_digests():
    assert multi_chunk_digests() == GOLDEN_MULTI_CHUNK


if __name__ == "__main__":
    print_table("GOLDEN_CLI", cli_digests())
    print_table("GOLDEN_TRANSCRIPTS", transcript_digests())
    print_table("GOLDEN_MULTI_CHUNK", multi_chunk_digests())
