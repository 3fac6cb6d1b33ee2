"""Golden SHA-256 digests of seeded outputs.

Three families are pinned:

* the CLI's ``run`` (text and JSON), ``sweep`` and ``bell`` (JSON) output
  for the three bundled scenarios, ``bell e91_honest.cfg`` as text, and
  ``rates`` as text, CSV and JSON for the README's example with and
  without ``--overlap 0.7``, plus the refusal ``rates --eta 7``, each with
  exit code and stderr;
* a protocol x Eve x source matrix of session transcripts, one digest per
  protocol over ``to_dict()``: the sifted keys and Eve's known bits of
  them as hex, the pulse, detection and sift counts, the decoy intensity
  statistics and E91's CHSH count and sum per setting pair.  A case that
  raises is hashed as its exception type and message;
* the same transcripts at a size that spans several session slices
  (``quantum.CHUNK`` pulses each), which pins where slices begin and end
  and the order in which they draw;
* transcripts on a lossless, noiseless line from the ideal source, where
  every pulse clicks, so no change to how clicks are drawn may move them.

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

# the README's rates example, and the same with a B92 state overlap
README_RATES = ("--epsilon", "0.05", "--mu", "0.1", "--eta", "0.1",
                "--p-dark", "1e-5")
RATES_ARGV = {"readme": README_RATES,
              "readme overlap": README_RATES + ("--overlap", "0.7")}

GOLDEN_CLI = {
    "run bb84_honest.cfg text":
        "ad350f298e80464d3dc786e9e392985f2943fa89cde4b42de3d3b7dc0866017d",
    "run bb84_honest.cfg json":
        "3dcbe53f3805015d5f4c7dcb52dc1627d409be992b4a835187cfe2b43f82832e",
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
        "c9e6e565c32105cfabfa61e0b6a7c6cece98bb45bd5e6991e8ef54b691984016",
    "run e91_honest.cfg json":
        "c4f113f861100e0841da5abcdba88b699b74d543a308eb6e23e325dd4dffecdc",
    "sweep e91_honest.cfg":
        "bb19ea53e95b23f432085c5402b63fc9afaa8a65bfe28801280963520d1c3603",
    "bell e91_honest.cfg":
        "d0ab1ae11fb7d385e5b6dc80004c6bc94cb0e72c25c83eb8bfd42701e126651a",
    "bell e91_honest.cfg text":
        "0e9e4a5087cc4b217158f3e97cd0cb1dfc26158d5309b5b3460b9b697fde658f",
    "rates readme text":
        "65251f537950e4e495da233126a8f137fbf25b22e0a67d182fb6ab24050ce0f7",
    "rates readme csv":
        "5dbc4e2fb373666c82fcdfccd0caa0085e5a2036ebf241e99da0d8dbddba4d00",
    "rates readme json":
        "a3f634c4c0c8f1eb1036648a9f6ac47ad178d0557a5de6de585dbb213a11b691",
    "rates readme overlap text":
        "5e9e49e29a5c6e33397b8013e7a8a4584e42cc6b73e625cffd48ab8a434f3e24",
    "rates readme overlap csv":
        "0173d98f9ec1672de1ff22589a3e67145e8870be9e70cbfa6965dc61ffb10409",
    "rates readme overlap json":
        "f0c2bf834c19c06f409a34b2c6d55964a44696259c95fe2f6585b3d977be4b72",
    "rates --eta 7":
        "51f9c8746163f409fe2c269ace189cff8505aa1054bcc49411666067c2e38505",
}

GOLDEN_TRANSCRIPTS = {
    "bb84": "c37ffd422ba8745087d4eb5f022009e5a65472cf4026a1493301fc52eb887d9f",
    "b92": "b13820e564aa3c8d7be86cef3af77c78b6fc4197d2c476283206795b07e8b250",
    "six_state":
        "16a4ed6c2ee5a8981d539ce7e5313433b70b15cd2faf935becf8192b21ad74f8",
    "sarg": "8552ba7978719a62285d1af1665d22fcf06e4e307ae4bab602a0a3e8539e6cbe",
    "decoy_bb84":
        "c4c5e1d710afba499a45464247258c3c099a96ef7814fe4386a1ee7668b38174",
    "bbm92":
        "2a60a182a9de984f4d959680d6b0e018d27baf8202dbd0b2d11f5fe9ca75e503",
    "e91": "5b5c1a3fd90613c2fe267d762e80d2cd5b53434a1783e0fe5c42c5aaf553be05",
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
    yield "bell e91_honest.cfg text", ["bell", "bundled:e91_honest.cfg"]
    for label, argv in RATES_ARGV.items():
        for fmt in ("text", "csv", "json"):
            yield f"rates {label} {fmt}", ["rates", *argv, "--format", fmt]
    yield "rates --eta 7", ["rates", "--eta", "7"]


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
    "bb84": "7f6710411f17cb36b438bf628b2a22a9e1ee00a5bdc0183224768da7e83ecf65",
    "b92": "cf0a96b4e1207736351b353a350ae534ebc9027cb787435ebac635ef75bdc763",
    "six_state":
        "aba897006a7b2a75ebc4639541ef2f2a9447bc76b82e7bdc67b953f443e5c5ac",
    "sarg": "7e2f80e4d9185f284345a8cb8ed7fbd524a25e8cc4a0d00902d6d9c438ce367d",
    "decoy_bb84":
        "46e44e4a241488b4b7a18e494a0949c0ab17dcc496db2ebe6a4257f4d7897e05",
    "bbm92":
        "b2a11b2fa5713e35fd1b3e33b0d1a5da623cb0eed6cc3fe9925a048855c96a4d",
    "e91": "9ffa667e180bb48e3585a033893af391dd186ea08c36d66920e1dde69d59e7ea",
    "bb84 basis_bias":
        "780ef0d64a70b16af2c4564873607803853c16480774f4c736f0fea1f677e245",
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


# Lossless-ideal matrix: every protocol that takes the ideal source, under
# no attack and intercept-resend in a uniform and a fixed basis, over a
# lossless, noiseless line at a size that spans two full session slices
# plus a ragged tail.  Every pulse clicks, so the click count and Bob's
# outcome draw nothing beyond what a line with no loss needs: these
# digests stay put through any change to how lossy lines are sampled.
LOSSLESS_EVES = EVES[:3]

GOLDEN_LOSSLESS_IDEAL = {
    "bb84": "0954c75ef0cc37de8432d14d2656f3404708adf420d2637ff5846560c3cda6e6",
    "b92": "9674109d49aaa98b3276227a7616ad85e726966516dcdb959fe792f36c7ee092",
    "six_state":
        "5cfe04e20966ff6714fb5d872811f169f56574bbb1915fa9374a09650f116d7e",
    "sarg": "c912bdd3d1043992268dcebd1c703f512be32c508c5a18644f6808314fd9d760",
    "bbm92":
        "35d293c788e4a5fa25cdcf277365af45c547533b1c5ddcbe9451834adb00407a",
    "e91": "ca11e476c873ba29185dc33ce484eca099364708b5e6f27dcd870b6a95e5fbfd",
}


def lossless_ideal_digests() -> dict:
    got = {}
    for protocol in PROTOCOLS:
        if protocol == "decoy_bb84":        # takes only a laser
            continue
        h = hashlib.sha256()
        for bias in (None, 0.7) if protocol in BIASED else (None,):
            for eve in LOSSLESS_EVES:
                cfg = ProtocolConfig(protocol, CHUNK_PULSES, basis_bias=bias)
                t = run_session(cfg, SourceModel.ideal(), ChannelModel(),
                                DetectorModel(), eve, derive_rng(13, 0))
                h.update(json.dumps(t.to_dict(), sort_keys=True).encode())
        got[protocol] = h.hexdigest()
    return got


def test_lossless_ideal_matrix_matches_golden_digests():
    assert lossless_ideal_digests() == GOLDEN_LOSSLESS_IDEAL


if __name__ == "__main__":
    print_table("GOLDEN_CLI", cli_digests())
    print_table("GOLDEN_TRANSCRIPTS", transcript_digests())
    print_table("GOLDEN_MULTI_CHUNK", multi_chunk_digests())
    print_table("GOLDEN_LOSSLESS_IDEAL", lossless_ideal_digests())
