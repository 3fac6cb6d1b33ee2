import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import zipfile
from functools import partial
from pathlib import Path

import pytest

import qkdsim
from qkdsim.adversary import EveStrategy
from qkdsim.cli import main
from qkdsim.postproc import PipelineParams, run_pipeline
from qkdsim.protocols import ProtocolConfig, run_session
from qkdsim.quantum import ChannelModel, DetectorModel, SourceModel
from qkdsim.rng import derive_rng
from qkdsim.scenario import (ConfigError, Scenario, load_scenario,
                             parse_scenario, simulate)

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(qkdsim.__file__).resolve().parent
BUNDLED = sorted(p.name for p in (PACKAGE / "data" / "scenarios").glob("*.cfg"))


def run_python(code, cwd, pythonpath=None):
    """Run code in a fresh interpreter; PYTHONPATH is replaced, not added."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    return subprocess.run([sys.executable, *code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, payload, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "protocol": "bb84",
    "num_pulses": 5000,
    "seed": 3,
    "source": {"kind": "ideal"},
    "channel": {"misalignment_error_prob": 0.02},
    "detector": {"preset": "ideal"},
    "eve": {"kind": "none"},
}


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_scenario():
    s = parse_scenario({"protocol": "bb84", "num_pulses": 10, "seed": 1})
    assert s.protocol_config.protocol == "bb84"
    assert s.seed == 1
    # a section left out of the file is the record's default
    assert s == Scenario(ProtocolConfig("bb84", 10), 1)


def test_seed_is_mandatory():
    with pytest.raises(ConfigError, match="seed"):
        parse_scenario({"protocol": "bb84", "num_pulses": 10})
    with pytest.raises(ConfigError, match=re.escape(
            "scenario: seed must be a non-negative integer, got -1")):
        parse_scenario(dict(BASE, seed=-1))
    for bad in (-1, 1.0, True, None):
        with pytest.raises(ValueError,
                           match="^seed must be a non-negative integer"):
            Scenario(ProtocolConfig("bb84", 10), bad)


def test_simulate_runs_the_session_and_pipeline_streams():
    # stream rule: the session on (seed, *stream, 0), the pipeline on
    # (seed, *stream, 1)
    sc = parse_scenario(BASE)
    transcript, result = simulate(sc, 3)
    expected = run_session(sc.protocol_config, sc.source, sc.channel,
                           sc.detector, sc.eve, derive_rng(sc.seed, 3, 0))
    key = run_pipeline(expected, sc.pipeline,
                       derive_rng(sc.seed, 3, 1)).final_key
    assert transcript.to_dict() == expected.to_dict()
    assert key is not None and result.final_key == key
    alone, none = simulate(sc, pipeline=False)
    assert none is None
    assert alone.to_dict() == run_session(
        sc.protocol_config, sc.source, sc.channel, sc.detector, sc.eve,
        derive_rng(sc.seed, 0)).to_dict()


def test_unknown_field_reports_path():
    with pytest.raises(ConfigError, match="scenario"):
        parse_scenario(dict(BASE, typo_field=1))
    with pytest.raises(ConfigError, match="detector"):
        parse_scenario(dict(BASE, detector={"preset": "ideal", "gain": 2}))
    with pytest.raises(ConfigError, match="postproc"):
        parse_scenario(dict(BASE, postproc={"eve_bound": "entropy"}))


def test_bad_max_passes_is_config_error(tmp_path, capsys):
    message = "postproc: max_passes must be None or an integer >= 1, got 0"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_scenario(dict(BASE, postproc={"max_passes": 0}))
    path = write_scenario(tmp_path, dict(BASE, postproc={"max_passes": 0}))
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert message in err
    assert parse_scenario(dict(BASE, postproc={"max_passes": None})) \
        .pipeline.max_passes is None


def test_unused_basis_bias_is_config_error(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(BASE, protocol="b92",
                                         basis_bias=0.7))
    code, out, err = run_cli(capsys, "run", path)
    assert code == 1 and out == ""
    assert err == "error: protocol: basis_bias is not used by b92\n"


def test_bad_preset_name_is_config_error(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(BASE, detector={"preset": "hal9000"}))
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert err == ("error: detector: unknown detector preset 'hal9000'; "
                   "have ['ideal', 'ingaas_peltier', 'si_apd']\n")


def test_channel_preset_fields_may_be_overridden():
    s = parse_scenario(dict(BASE, channel={"preset": "fiber_1550",
                                           "length_km": 25,
                                           "attenuation_db_per_km": 0.5}))
    assert s.channel.attenuation_db_per_km == 0.5
    assert s.channel.length_km == 25.0
    assert s.channel.transmittance == pytest.approx(10 ** -1.25, rel=1e-12)


@pytest.mark.parametrize("section, value, message", [
    ("channel", "fiber_1550", "channel: expected an object, got 'fiber_1550'"),
    ("postproc", [0.1], "postproc: expected an object, got [0.1]"),
    ("source", {"kind": ["laser"]}, "source.kind: unknown kind ['laser']"),
    (None, 5, "scenario: expected an object, got 5"),     # the whole file
    (None, "seed", "scenario: expected an object, got 'seed'"),
])
def test_malformed_section_is_config_error(section, value, message):
    raw = value if section is None else dict(BASE, **{section: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_scenario(raw)


def test_readme_scenario_example_parses_as_documented():
    text = README.read_text().split("### Scenario files", 1)[1]
    example = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    s = parse_scenario(json.loads(example))
    assert (s.protocol_config.protocol, s.protocol_config.num_pulses,
            s.seed, s.protocol_config.basis_bias) == ("bb84", 20000, 7, 0.5)
    assert s.source == SourceModel.laser(0.5)
    assert s.channel == ChannelModel(length_km=25.0,
                                     attenuation_db_per_km=0.2,
                                     misalignment_error_prob=0.01)
    assert s.detector == DetectorModel(efficiency=0.5, dark_prob=1e-7)
    assert s.eve == EveStrategy("pns", block_single_prob=0.5)
    assert s.pipeline == PipelineParams(sample_fraction=0.1,
                                        qber_abort_threshold=0.11,
                                        safety_bits=30)


def _default_cases(model):
    """(section fields, expected model or the model's own error) for every
    field of ``model`` that has a default, passed at that default."""
    if model is SourceModel:   # kind picks the constructor; it takes the rest
        defaults = {f.name: f.default for f in dataclasses.fields(model)}
        for name, attr in vars(SourceModel).items():
            if isinstance(attr, classmethod):
                ctor = getattr(SourceModel, name)
                kwargs = {p: defaults[p]
                          for p in inspect.signature(ctor).parameters}
                yield dict(kwargs, kind=name), partial(ctor, **kwargs)
        return
    required = {"protocol": "bb84", "num_pulses": 10}
    for f in dataclasses.fields(model):
        if f.default is not dataclasses.MISSING:
            kwargs = {f.name: f.default}
            if model is ProtocolConfig:
                kwargs.update(required)
            yield kwargs, partial(model, **kwargs)


@pytest.mark.parametrize("section, model, attr", [
    (None, ProtocolConfig, "protocol_config"),
    ("source", SourceModel, "source"),
    ("channel", ChannelModel, "channel"),
    ("detector", DetectorModel, "detector"),
    ("eve", EveStrategy, "eve"),
    ("postproc", PipelineParams, "pipeline"),
])
def test_every_model_field_is_accepted_at_its_default(section, model, attr):
    cases = list(_default_cases(model))
    named = {k for fields, _ in cases for k in fields}
    assert {f.name for f in dataclasses.fields(model)} <= named
    for fields, build in cases:
        raw = json.loads(json.dumps(
            dict(fields, seed=1) if section is None else
            {"protocol": "bb84", "num_pulses": 10, "seed": 1,
             section: fields}))
        try:
            expected = build()
        except ValueError as exc:   # e.g. a laser at the default mu = 0
            with pytest.raises(ConfigError, match=re.escape(f": {exc}")):
                parse_scenario(raw)
            continue
        assert getattr(parse_scenario(raw), attr) == expected


def test_comment_keys_ignored():
    s = parse_scenario(dict(BASE, _comment="hello"))
    assert s.seed == 3


def test_bundled_scenarios_load():
    for name in ("bb84_honest.cfg", "bb84_intercept.cfg", "e91_honest.cfg"):
        s = load_scenario(f"bundled:{name}")
        assert s.protocol_config.num_pulses > 0


def test_bundled_data_loads_from_a_zip_import(tmp_path):
    # zipimport cannot import namespace packages: qkdsim.data must be a
    # regular package for resources.files("qkdsim.data") to find it
    assert len(BUNDLED) == 3
    archive = tmp_path / "qkdsim.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(PACKAGE.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(PACKAGE.parent))
    script = f"""
import sys
sys.path.insert(0, {str(archive)!r})
import qkdsim
assert qkdsim.__file__.startswith({str(archive)!r}), qkdsim.__file__
from qkdsim.scenario import load_scenario
from qkdsim.quantum import load_presets
assert load_presets()
for name in {BUNDLED!r}:
    assert load_scenario("bundled:" + name).protocol_config.num_pulses > 0
"""
    proc = run_python(["-c", script], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_package_and_key_distillation_load_no_scipy(tmp_path):
    # scipy is imported only inside the rate optimizers; a session, its
    # pipeline and the rate cross-checks must not pull it in
    script = """
import sys
import qkdsim, qkdsim.cli
from qkdsim import (ProtocolConfig, SourceModel, channel_preset,
                    decoy_estimate, detector_preset, evaluate_rates, gain_Qmu)
from qkdsim.scenario import Scenario, simulate
honest = Scenario(ProtocolConfig("bb84", 20000), 1, channel=channel_preset(
    "lossless", misalignment_error_prob=0.02),
    detector=detector_preset("ideal"))
assert not simulate(honest, 0)[1].aborted
cfg = ProtocolConfig("decoy_bb84", 200000, signal_mu=0.8, decoy_mu=0.12,
                     decoy_fraction=0.12)
decoy, res = simulate(Scenario(cfg, 1, SourceModel.laser(0.8),
                               channel_preset("fiber_1550", 10),
                               detector_preset("ingaas_peltier")), 1)
stats = decoy.intensity_stats
evaluate_rates(epsilon=res.qber_estimate, mu=0.8, eta=0.1, p_dark=1e-5)
gain_Qmu(0.12, 0.1, 1e-5)
decoy_estimate(stats["signal"]["gain"], stats["decoy"]["gain"], 0.8, 0.12,
               1e-5)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    proc = run_python(["-c", script], cwd=tmp_path,
                      pythonpath=str(PACKAGE.parent))
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_honest_exits_zero_with_key(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(BASE, num_pulses=20000))
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    assert "final_key_hex" in out
    assert "abort_stage = None" in out


def test_run_intercept_aborts_with_exit_two(capsys):
    code, out, _ = run_cli(capsys, "run", "bundled:bb84_intercept.cfg")
    assert code == 2
    assert "'estimation'" in out


@pytest.mark.parametrize("scenario, message", [
    ({"protocol": "decoy_bb84"}, "decoy_bb84 requires an attenuated_laser"),
    ({"eve": {"kind": "usd_b92"}}, "usd_b92 requires the B92 state pair"),
    ({"protocol": "e91", "eve": {"kind": "pns"}},
     "pair protocols support eve kinds"),
    ({"eve": {"kind": "intercept_resend", "fixed_basis": -1}},
     "eve: fixed_basis must be >= 0"),
    ({"eve": {"kind": "intercept_resend", "fixed_basis": 5}},
     "fixed_basis 5 is out of range: Eve can measure in 2 bases"),
    ({"protocol": "e91",
      "eve": {"kind": "intercept_resend", "fixed_basis": 3}},
     "fixed_basis 3 is out of range: Eve can measure in 3 bases"),
    ({"postproc": {"safety_bits": 20.5}},
     "postproc: safety_bits must be an integer, got 20.5"),
    ({"postproc": {"safety_bits": -100}},
     "postproc: safety_bits must be >= 0"),
    ({"eve": {"kind": "intercept_resend", "fixed_basis": 1.5}},
     "eve: fixed_basis must be an integer, got 1.5"),
    ({"eve": {"kind": "intercept_resend", "fixed_basis": True}},
     "eve: fixed_basis must be an integer, got True"),
    ({"postproc": {"sample_fraction": 1.5}},
     "postproc: sample_fraction must lie in (0, 1]"),
    ({"postproc": {"sample_fraction": True}},
     "postproc: sample_fraction must be a number, got True"),
    ({"num_pulses": 2000.7}, "protocol: num_pulses must be an integer"),
    ({"channel": {"preset": "fiber_1550", "length_km": float("nan")}},
     "channel: length_km must be a number, got nan"),
    ({"channel": {"attenuation_db_per_km": float("inf")}},
     "channel: attenuation_db_per_km must be a number, got inf"),
    ({"source": {"kind": "laser", "mu": float("nan")}},
     "source: mu must be a number, got nan"),
    ({"source": {"kind": "laser", "mu": 10 ** 400}},
     "source: mu must be a number, got 1000"),
    ({"protocol": "e91", "source": {"kind": "laser", "mu": 0.5}},
     "e91 takes only the ideal source: multi-pair emission is not modelled"),
    ({"protocol": "decoy_bb84", "signal_mu": -0.5,
      "source": {"kind": "laser", "mu": 0.5}},
     "protocol: signal_mu must be finite and > 0"),
    ({"protocol": "decoy_bb84", "decoy_mu": -0.1,
      "source": {"kind": "laser", "mu": 0.5}},
     "protocol: decoy_mu must be finite and >= 0"),
    ({"source": {"kind": "laser", "mu": 1e5}},
     "mu = 100000.0 is too large (> 10^4 photon counts)"),
    ({"seed": -1}, "scenario: seed must be a non-negative integer, got -1"),
])
def test_scenario_refused_by_runner_is_clean_error(tmp_path, scenario,
                                                   message):
    path = write_scenario(tmp_path, dict(BASE, **{"num_pulses": 2000,
                                                  **scenario}))
    proc = run_python(["-m", "qkdsim.cli", "run", path], cwd=tmp_path,
                      pythonpath=str(PACKAGE.parent))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}")
    assert "Traceback" not in proc.stderr


# every bit randomized on the line: the estimated error rate lands near 0.5
RANDOM_LINE = dict(BASE, num_pulses=200,
                   channel={"misalignment_error_prob": 0.5})


def test_run_above_half_error_rate_leaves_out_epsilon_rates(tmp_path, capsys):
    # seed 5: an estimate of 2/3 from the 200-pulse sample
    path = write_scenario(tmp_path, dict(RANDOM_LINE, seed=5))
    code, out, _ = run_cli(capsys, "run", path, "--format", "json")
    report = json.loads(out)
    assert code == 2
    assert report["qber_estimate"] > 0.5
    assert report["abort_stage"] == "estimation"
    assert "r_shor_preskill" not in report["rates"]
    assert "gain_Qmu" not in report["rates"]    # ideal source: no mu


def test_run_at_half_error_rate_aborts_at_estimation(tmp_path, capsys):
    # a threshold of 0.5 lets an estimate of exactly 0.5 through to the
    # pipeline's own check, not to reconciliation
    path = write_scenario(tmp_path, dict(
        RANDOM_LINE, seed=9, postproc={"qber_abort_threshold": 0.5}))
    code, out, _ = run_cli(capsys, "run", path, "--format", "json")
    report = json.loads(out)
    assert code == 2
    assert report["qber_estimate"] == 0.5
    assert report["abort_stage"] == "estimation"
    assert report["abort_reason"] == "error rate 0.5000 is not below 0.5"


def test_run_json_format(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    code, out, _ = run_cli(capsys, "run", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["protocol"] == "bb84"
    assert "rates" in payload


def test_run_deterministic_byte_identical(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    _, out1, _ = run_cli(capsys, "run", path, "--seed", "99")
    _, out2, _ = run_cli(capsys, "run", path, "--seed", "99")
    _, out3, _ = run_cli(capsys, "run", path, "--seed", "100")
    assert out1 == out2
    assert out1 != out3


def test_run_pulses_override(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    code, out, _ = run_cli(capsys, "run", path, "--pulses", "1234")
    assert "pulses = 1234" in out


@pytest.mark.parametrize("flag, message", [
    ("--pulses", "protocol: num_pulses must be >= 0"),
    ("--seed", "scenario: seed must be a non-negative integer, got -3"),
])
def test_negative_override_is_clean_error(tmp_path, flag, message):
    path = write_scenario(tmp_path, BASE)
    proc = run_python(["-m", "qkdsim.cli", "run", path, flag, "-3"],
                      cwd=tmp_path, pythonpath=str(PACKAGE.parent))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_run_out_writes_file(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "run", path, "--out", str(target))
    assert out == ""
    assert target.read_text().startswith("session report")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_single_step_matches_run_rates(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    code, out, _ = run_cli(capsys, "sweep", path, "--axis", "epsilon",
                           "--start", "0.02", "--stop", "0.02", "--steps", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("axis,axis_value,seed")


def test_sweep_rows_and_header(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(BASE, num_pulses=2000))
    code, out, _ = run_cli(capsys, "sweep", path, "--axis", "epsilon",
                           "--start", "0.01", "--stop", "0.05", "--steps", "3")
    lines = out.strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    assert "r_shor_preskill_raw" in header
    assert "r_shor_preskill_clamped" in header
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)


def test_sweep_mu_requires_laser(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    code, _, err = run_cli(capsys, "sweep", path, "--axis", "mu",
                           "--start", "0.1", "--stop", "0.5", "--steps", "2")
    assert code == 1 and "laser" in err


@pytest.mark.parametrize("axis, value, source, message", [
    ("epsilon", "0.6", {"kind": "ideal"},
     "epsilon = 0.6: misalignment_error_prob must lie in [0, 0.5]"),
    ("length_km", "-1", {"kind": "ideal"},
     "length_km = -1.0: length and attenuation must be finite and >= 0"),
    ("mu", "0", {"kind": "laser", "mu": 0.5},
     "mu = 0.0: attenuated_laser requires mu > 0"),
])
def test_sweep_out_of_range_value_is_clean_error(tmp_path, axis, value,
                                                 source, message):
    path = write_scenario(tmp_path, dict(BASE, num_pulses=2000,
                                         source=source))
    proc = run_python(["-m", "qkdsim.cli", "sweep", path, "--axis", axis,
                       "--start", value, "--stop", value, "--steps", "1"],
                      cwd=tmp_path, pythonpath=str(PACKAGE.parent))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["-0.5", "0", "nan", "inf"])
def test_sweep_decoy_mu_out_of_range_is_clean_error(tmp_path, value):
    # on decoy_bb84 the mu axis sets signal_mu
    path = write_scenario(tmp_path, dict(
        BASE, protocol="decoy_bb84", num_pulses=2000,
        source={"kind": "laser", "mu": 0.5}))
    proc = run_python(["-m", "qkdsim.cli", "sweep", path, "--axis", "mu",
                       "--start", value, "--stop", value, "--steps", "1"],
                      cwd=tmp_path, pythonpath=str(PACKAGE.parent))
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        f"error: mu = {float(value)!r}: signal_mu must be finite and > 0")
    assert "Traceback" not in proc.stderr


def test_sweep_invalid_steps(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    code, _, err = run_cli(capsys, "sweep", path, "--axis", "epsilon",
                           "--start", "0.01", "--stop", "0.05", "--steps", "0")
    assert code == 1


def test_sweep_length_axis_rate_dies_with_distance(tmp_path, capsys):
    scenario = dict(BASE, num_pulses=2000,
                    source={"kind": "laser", "mu": 0.1},
                    channel={"preset": "fiber_1550"},
                    detector={"preset": "ingaas_peltier"})
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run_cli(capsys, "sweep", path, "--axis", "length_km",
                           "--start", "0", "--stop", "200", "--steps", "5")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    col = header.index("r_gllp_per_pulse_clamped")
    clamped = [float(line.split(",")[col]) for line in lines[1:]]
    assert clamped[0] > 0.0
    assert clamped[-1] == 0.0   # secure-distance cutoff inside the sweep


def test_sweep_above_half_error_rate_leaves_out_epsilon_rates(tmp_path,
                                                              capsys):
    path = write_scenario(tmp_path, RANDOM_LINE)
    code, out, _ = run_cli(capsys, "sweep", path, "--axis", "length_km",
                           "--start", "0", "--stop", "10", "--steps", "4")
    assert code == 0
    lines = out.strip().split("\n")
    col = lines[0].split(",").index("r_shor_preskill_raw")
    rates = [line.split(",")[col] for line in lines[1:]]
    assert len(rates) == 4 and "" in rates


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rates_cutoff_point(capsys):
    code, out, _ = run_cli(capsys, "rates", "--epsilon", "0.11")
    assert code == 0
    line = next(l for l in out.split("\n") if "r_shor_preskill" in l)
    assert abs(float(line.split()[2])) < 5e-4


def test_rates_zero_error(capsys):
    code, out, _ = run_cli(capsys, "rates", "--epsilon", "0.0", "--format",
                           "json")
    payload = json.loads(out)
    for key in ("r_mayers", "r_shor_preskill", "r_six_state"):
        assert payload["values"][key] == pytest.approx(1.0)


def test_rates_epsilon_above_half_is_clean_error(capsys):
    code, _, err = run_cli(capsys, "rates", "--epsilon", "0.6")
    assert code == 1
    assert err.startswith("error: rates: ")


def test_rates_pns_flagged(capsys):
    code, out, _ = run_cli(capsys, "rates", "--mu", "0.5", "--eta", "0.1")
    assert code == 0
    line = next(l for l in out.split("\n") if "bound_pns" in l)
    assert "[no secure key]" in line


# ---------------------------------------------------------------------------
# bell
# ---------------------------------------------------------------------------

def test_bell_verb_reports_violation(capsys):
    code, out, _ = run_cli(capsys, "bell", "bundled:e91_honest.cfg",
                           "--pulses", "40000")
    assert code == 0
    assert "violates_classical = True" in out


def test_bell_rejects_non_e91(capsys, tmp_path):
    path = write_scenario(tmp_path, BASE)
    code, _, err = run_cli(capsys, "bell", path)
    assert code == 1 and "e91" in err


@pytest.mark.parametrize("verb, pulses", [("bell", "5"), ("run", "0")])
def test_chsh_from_too_few_pairs_is_clean_error(capsys, verb, pulses):
    code, _, err = run_cli(capsys, verb, "bundled:e91_honest.cfg",
                           "--pulses", pulses)
    # which pair gets no sample depends on the seeded draws
    assert code == 1 and "Traceback" not in err
    assert re.match(r"error: chsh: setting pair \('n1p?', 'n2p?'\) has 0 "
                    r"samples", err), err
