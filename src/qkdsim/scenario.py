"""One QKD scenario, source to final key: the ``Scenario`` record, its
reader ``parse_scenario``, and the stream rule of ``simulate``: the
session runs on ``derive_rng(seed, *stream, 0)``, the key-distillation
pipeline on ``derive_rng(seed, *stream, 1)``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from importlib import resources
from typing import Optional

from .adversary import NO_EVE, EveStrategy
from .postproc import PipelineParams, run_pipeline
from .protocols import ProtocolConfig, run_session
from .quantum import (ChannelModel, DetectorModel, SourceModel,
                      channel_preset, detector_preset, number_fields)
from .rates import RateReport, evaluate_rates
from .rng import derive_rng


class ConfigError(Exception):
    """Scenario validation failure; the message carries the field path."""


@dataclass(frozen=True)
class Scenario:
    protocol_config: ProtocolConfig
    seed: int
    # each model defaults to what a scenario file without its section gives
    source: SourceModel = SourceModel.ideal()
    channel: ChannelModel = ChannelModel()
    detector: DetectorModel = DetectorModel()
    eve: EveStrategy = NO_EVE
    pipeline: PipelineParams = PipelineParams()

    def __post_init__(self):
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")


def _strip_comments(obj):
    if isinstance(obj, dict):
        return {k: _strip_comments(v) for k, v in obj.items()
                if not k.startswith("_")}
    return obj


SECTIONS = {"source": SourceModel, "channel": ChannelModel,
            "detector": DetectorModel, "eve": EveStrategy,
            "postproc": PipelineParams}
PRESETS = {ChannelModel: channel_preset, DetectorModel: detector_preset}


def _refuse_unknown(raw: dict, path: str, allowed: set) -> None:
    extra = set(raw) - allowed
    if extra:
        raise ConfigError(f"{path}: unknown field(s) {sorted(extra)}")


def _number(path: str, name: str, value, kind, optional=False):
    """A scenario number read as its field's kind: an ``int`` field takes
    integral values only ("num_pulses": 3e3 is 3000), a ``float`` field
    any finite number ("mu": 1 prints 1.0).  Booleans, NaN, ±inf and
    non-numbers are refused; ``null`` only where the field is Optional."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            abs(value) <= sys.float_info.max) or (
            kind is int and isinstance(value, float)
            and not value.is_integer()):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{path}: {name} must be {noun}, got {value!r}")
    return kind(value)


def _message(exc: Exception) -> str:   # str() of a KeyError quotes it
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)


def _build(path: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, its refusal reported at ``path``."""
    try:
        return factory(*args, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {_message(exc)}") from None


def _section(path: str, model, raw: Optional[dict]):
    """Build ``model`` from a scenario section whose fields are the model's
    dataclass fields, numbers read by ``_number``.  A source's ``kind``
    names the ``SourceModel`` constructor to call; a ``preset`` loads
    channel or detector presets and passes every other field through as an
    override."""
    if not isinstance(raw or {}, dict):
        raise ConfigError(f"{path}: expected an object, got {raw!r}")
    raw = dict(raw or {})
    allowed = {f.name for f in fields(model)}
    if model in PRESETS:
        allowed.add("preset")
    _refuse_unknown(raw, path, allowed)
    numbers = number_fields(model)
    factory = model
    if model is SourceModel:
        kind = raw.pop("kind", "ideal")
        if not isinstance(vars(SourceModel).get(str(kind)), classmethod):
            raise ConfigError(f"source.kind: unknown kind {kind!r}")
        factory = getattr(SourceModel, kind)
    elif "preset" in raw:
        factory = partial(PRESETS[model], raw.pop("preset"))
    kwargs = {k: _number(path, k, v, *numbers[k]) if k in numbers else v
              for k, v in raw.items()}
    return _build(path, factory, **kwargs)


def parse_scenario(raw: dict) -> Scenario:
    raw = _strip_comments(raw)
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario: expected an object, got {raw!r}")
    protocol_fields = {f.name for f in fields(ProtocolConfig)}
    _refuse_unknown(raw, "scenario",
                    protocol_fields | set(SECTIONS) | {"seed"})
    if "seed" not in raw:
        raise ConfigError("seed: required (no ambient randomness)")
    for f in fields(ProtocolConfig):
        if f.default is MISSING and f.name not in raw:
            raise ConfigError(f"{f.name}: required")
    protocol = {k: v for k, v in raw.items() if k in protocol_fields}
    cfg = _section("protocol", ProtocolConfig, protocol)
    models = [_section(name, model, raw.get(name))
              for name, model in SECTIONS.items()]
    return _build("scenario", Scenario, cfg,
                  _number("scenario", "seed", raw["seed"], int), *models)


def load_scenario(path: str, seed: Optional[int] = None,
                  pulses: Optional[int] = None) -> Scenario:
    if path.startswith("bundled:"):
        name = path.split(":", 1)[1]
        text = resources.files("qkdsim.data").joinpath(
            f"scenarios/{name}").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    scenario = parse_scenario(raw)
    if seed is not None:
        scenario = _build("scenario", replace, scenario, seed=seed)
    if pulses is not None:
        scenario = replace(scenario, protocol_config=_build(
            "protocol", replace, scenario.protocol_config, num_pulses=pulses))
    return scenario


def simulate(scenario: Scenario, *stream: int, pipeline: bool = True):
    """Run the session on stream ``(seed, *stream, 0)`` and, unless
    ``pipeline`` is false, the key-distillation pipeline on
    ``(seed, *stream, 1)``; returns ``(transcript, result or None)``."""
    try:
        transcript = run_session(
            scenario.protocol_config, scenario.source, scenario.channel,
            scenario.detector, scenario.eve,
            derive_rng(scenario.seed, *stream, 0))
    except ValueError as exc:   # sections valid alone, refused together
        raise ConfigError(str(exc)) from exc
    if not pipeline:
        return transcript, None
    return transcript, run_pipeline(transcript, scenario.pipeline,
                                    derive_rng(scenario.seed, *stream, 1))


def scenario_rates(scenario: Scenario,
                   epsilon: Optional[float]) -> RateReport:
    """Rates at the scenario's hardware; an error rate above 0.5, which no
    rate formula takes, leaves out the rates that depend on it."""
    if epsilon is not None and epsilon > 0.5:
        epsilon = None
    mu = None
    if scenario.source.kind == "attenuated_laser":
        mu = scenario.source.mu
    if scenario.protocol_config.protocol == "decoy_bb84":
        mu = scenario.protocol_config.signal_mu
    overlap = None
    if scenario.protocol_config.protocol == "b92":
        overlap = scenario.protocol_config.b92_overlap
    eta = scenario.channel.transmittance * scenario.detector.efficiency
    return evaluate_rates(epsilon=epsilon, mu=mu, eta=eta,
                          p_dark=scenario.detector.dark_prob, overlap=overlap)
