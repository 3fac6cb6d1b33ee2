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
unchanged; an intended output change re-records them here and says so in
CHANGES.md.  The digests depend on numpy's Generator streams and were
recorded with numpy 2.4.  The ``bbm92`` and ``e91`` digests and the CLI
digests of ``e91_honest.cfg`` were re-recorded when the pair protocols
came to run on the prepare-and-measure engine: the draws differ, the
distributions do not.  The CLI digests of every ``run`` that reconciles
(``bb84_honest.cfg`` and ``e91_honest.cfg``, text and JSON) and of
``sweep bb84_honest.cfg`` were re-recorded when reconciliation became
Cascade with backtracking: fewer parities are disclosed, so keys are
longer, and the subset masks are drawn as packed bytes.  The ``b92``
digests of both transcript matrices were re-recorded when Eve's B92
intercept-resend knowledge came to be her conclusive results, not her
basis label: only ``eve_known_hex`` moved.  The CLI digests of ``run
bb84_honest.cfg`` (text and JSON) and ``sweep bb84_honest.cfg`` were
re-recorded when privacy amplification came to charge Eve ceil(n h(eps))
instead of 2 eps per bit: the keys are shorter.  ``e91_honest.cfg`` runs
at an error rate of 0, where both charges are 0.  The ``sarg`` digests of
both transcript matrices were re-recorded when Bob's sift and Eve's
knowledge came to share one readout table: SARG's Eve is credited with a
bit when her outcome rules out one state of the announced pair, not when
her basis is Alice's.  Only ``eve_known_hex`` of its intercept-resend
cells moved.  The CLI digests of every ``run`` that reconciles and of
``sweep bb84_honest.cfg`` were re-recorded when each Cascade pass came to
place the bits with an affine slot map instead of a random permutation:
the sessions and QBER estimates are the same, the parities and keys
differ (``bb84_honest.cfg`` 1428 → 1437 parities, key 6392 → 6383 bits).
The ``b92`` and ``sarg`` digests of both transcript matrices were
re-recorded when k photons Eve holds came to yield the bit with
probability 1 - overlap^k of the announced candidates, B92's as well as
SARG's.  In the small matrix only ``eve_known_hex`` moved: of B92's
beam-split and PNS cells, and of SARG's beam-split cell with a laser
source, where Eve can hold k >= 2 photons.  In the multi-chunk matrix the
same cells moved; B92's later slices move as a whole, because the new
draw advances the stream.  The ``bb84``, ``b92``, ``six_state``, ``sarg``
and ``decoy_bb84`` digests of both transcript matrices were re-recorded
when line loss came to be drawn once, in Bob's ``click_law``: beam
splitting forwards every photon it does not tap, and USD every conclusive
result, over a line whose transmittance keeps Bob's rate.  The law is the
same, but each such cell draws one array fewer, so only the
``beam_split`` and ``usd_b92`` cells moved.

Run as a script (``python tests/test_golden.py``), this file prints its
three tables recomputed, ready to paste over the ones below.
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
        "33967e98b86b5bbfb814492c016cda7c98432f909130256e2c848dd967db7d64",
    "run bb84_honest.cfg json":
        "65f4fa1ece3743f86b1b172bec0a31dd6d31c205f10ba9450e82c6aceb3aa65f",
    "sweep bb84_honest.cfg":
        "0dd1be5d7aec628cc0598da78a30f79567cd9670837798c43d7ca10d25294270",
    "bell bb84_honest.cfg":
        "130ed44d84417f2c3fed5525293cc91972390731bfb9463091f6b5348221daa9",
    "run bb84_intercept.cfg text":
        "77e5bd6d992b355b9bafa6c0d9fc38306125196e09ace149ebb3e4a3c8cc3799",
    "run bb84_intercept.cfg json":
        "eccd46dbf1341a1b0d0b930d9d26a14a82cfe74285ebfb8cde746462ea720e61",
    "sweep bb84_intercept.cfg":
        "405a614a838297a4781927eefca99abd7e8e729071719a555672b248bc4220a1",
    "bell bb84_intercept.cfg":
        "130ed44d84417f2c3fed5525293cc91972390731bfb9463091f6b5348221daa9",
    "run e91_honest.cfg text":
        "a63879bb5231c12f5d6924869d71be7153ebf608d1de171c1bb2a9883a85749b",
    "run e91_honest.cfg json":
        "e9913f74ef33975bf07fde285f8665a63af75ab1c0a1eba66ee6c2d46dde2226",
    "sweep e91_honest.cfg":
        "eb79e79ec99acd5a3219ec05027e08d632db8fc89cfea1956eac6b585e3ad1aa",
    "bell e91_honest.cfg":
        "db790a98ddf1d37dbccb7cc3b330eed94d49be3cb7e0156bc937e6a2d3bc8538",
}

GOLDEN_TRANSCRIPTS = {
    "bb84": "9e91f5eb8deadc620468313a05fc1e3d9236f1fa66fdb02edca0fbca3cfdd851",
    "b92": "4949ab000a07a64e569bdb8a91ca5ea973a1de5c6419a0053748a2ea7a3ac340",
    "six_state":
        "357580b2b9e02fd83cb45751b49c9691c2e50de82d27db8bbd44062cfb7e070a",
    "sarg": "1aed4dec3bb23694544108b53027845f14d47176b074cfdef8bbe295d3bd062a",
    "decoy_bb84":
        "3e491d0ba9c1d510b7681c7eb59bd9907e22c2aba08b8cd76bbbe09dbe85c607",
    "bbm92":
        "a759bc9c399c7a968cd5f82a65f6800bc06f6de6dc965be3a96b2c8fffc71f1b",
    "e91": "e3bece0965a7fd4b461b833c0bca6496c5771f9b69678e45465eecc53e053f23",
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
    "bb84": "fd0369ae654b3a84d1a037ab7fd9ef936259427a02ec309943d34726843e1540",
    "b92": "1a639e134acd081e2c25e7c2a400118760bfceac8691545e7f53a168d982ed1d",
    "six_state":
        "e786aa7f3a1199bbf28b4369f9ed617a3bd23f4f2f742ce6599ce951cd223da2",
    "sarg": "b674d64b6debb23e883eda048bd3d6fa1ceddccceb393b4990b3cc02ef423287",
    "decoy_bb84":
        "5b534be3b025481d95854b2aba839d4051c5f208f0addafbef39451b975cbb38",
    "bbm92":
        "a9fc076b996299e0b89ca53cbf42f262a4d990444a131ee24f15764d9930cbbd",
    "e91": "9945530e25f13705a8c357496242cf1b3bb51cb2b16f82398e5e69705d150526",
    "bb84 basis_bias":
        "18a763a79c7dca1976bbde29cb9c133b98ba7c86a1a6fc3552cab5fba0e12190",
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
