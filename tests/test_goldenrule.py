import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from resokit import goldenrule

from resokit.errors import (
    ArrowOfTimeError,
    ChannelLookupError,
    ConfigurationError,
    NormalizationError,
    StateError,
)
from resokit.goldenrule import (
    Channel,
    DecayConfig,
    Detector,
    FormFactor,
    born_gap,
    born_rate,
    breit_wigner_density,
    bw_delta_limit_check,
    decay_probability,
    decay_rate,
    normalize,
    partial_rate,
    partial_width,
    registered_fraction,
    total_width_check,
)
from resokit.surface import ResonancePole


@pytest.fixture(scope="module")
def resonance():
    return ResonancePole(energy=1.5, width=0.2)


@pytest.fixture(scope="module")
def config3(resonance):
    channels = (
        Channel(label="a", strength=1.0, form_factor=FormFactor(1.0)),
        Channel(label="b", strength=0.6, form_factor=FormFactor(2.0)),
        Channel(label="c", strength=2.2, form_factor=FormFactor(0.7)),
    )
    return normalize(
        DecayConfig(resonance=resonance, channels=channels, detector=Detector.ideal())
    )


class TestBreitWigner:
    def test_peak_and_half_width(self, resonance):
        peak = breit_wigner_density(resonance, resonance.energy)
        assert peak == pytest.approx(2.0 / (np.pi * resonance.width))
        half = breit_wigner_density(resonance, resonance.energy + resonance.width / 2)
        assert half == pytest.approx(0.5 * peak)

    def test_full_line_normalization(self, resonance):
        total, _ = quad(
            lambda e: breit_wigner_density(resonance, e), -np.inf, np.inf, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-10)


class TestFormFactor:
    def test_peak_sits_at_third_of_cutoff(self):
        w = FormFactor(3.0)
        e = np.linspace(0.01, 10.0, 20000)
        assert e[np.argmax(w(e))] == pytest.approx(1.0, abs=1e-3)

    def test_threshold_zero(self):
        assert FormFactor(1.0)(0.0) == 0.0

    def test_cutoff_validation(self):
        with pytest.raises(ConfigurationError):
            FormFactor(0.0)
        with pytest.raises(ConfigurationError):
            FormFactor(float("nan"))


class TestChannelValidation:
    def test_rejects_non_decaying_weight(self):
        with pytest.raises(ConfigurationError):
            Channel(label="flat", strength=1.0, form_factor=np.ones_like)

    def test_rejects_negative_weight(self):
        with pytest.raises(ConfigurationError):
            Channel(label="neg", strength=1.0, form_factor=lambda e: -np.asarray(e))

    def test_rejects_bad_strength_and_label(self):
        with pytest.raises(ConfigurationError):
            Channel(label="x", strength=-1.0, form_factor=FormFactor(1.0))
        with pytest.raises(ConfigurationError):
            Channel(label="", strength=1.0, form_factor=FormFactor(1.0))
        with pytest.raises(ConfigurationError):
            Channel(label="x", strength=1.0, form_factor="w")


class TestDetector:
    def test_constant_efficiency_bounds(self):
        with pytest.raises(ConfigurationError):
            Detector({"a": 1.5})
        with pytest.raises(ConfigurationError):
            Detector({"a": -0.1})

    def test_callable_efficiency_bounds(self):
        with pytest.raises(ConfigurationError):
            Detector({"a": lambda e: 2.0 * np.ones_like(np.asarray(e))})

    def test_nan_efficiency_refused(self):
        # accepted, it would end the first rate call in the Lorentzian quadrature
        with pytest.raises(ConfigurationError, match="'a'"):
            Detector({"a": lambda e: np.where(np.asarray(e) > 1.0, np.nan, 0.5)})
        with pytest.raises(ConfigurationError):
            Detector({"a": float("nan")})

    def test_default_is_ideal(self):
        d = Detector.ideal()
        assert np.all(d.efficiency("anything", np.array([1.0, 2.0])) == 1.0)

    def test_equal_efficiencies_are_equal(self, resonance):
        # constants compare by value, callables by identity; before, every
        # two detectors differed, and with them two equal configurations
        def eff(e):
            return 0.5 * np.ones_like(np.asarray(e, dtype=float))

        assert Detector({"a": 0.5}) == Detector({"a": 0.5})
        assert hash(Detector({"a": 0.5, "b": 1})) == hash(Detector({"b": 1.0, "a": 0.5}))
        assert Detector({"a": 0.5}) != Detector({"a": 0.25})
        assert Detector({"a": 0.5}) != Detector({"b": 0.5})
        assert Detector({"a": eff}) == Detector({"a": eff})
        assert Detector({"a": eff}) != Detector({"a": lambda e: eff(e)})
        assert Detector({"a": eff}) != Detector({"a": 0.5})
        assert Detector.ideal() == Detector() and Detector() != {"a": 0.5}
        channels = (Channel(label="a", strength=1.0, form_factor=FormFactor(1.0)),)
        one, two = (DecayConfig(resonance, channels, Detector({"a": 0.5})) for _ in range(2))
        assert one == two and hash(one) == hash(two)


class TestConfigValidation:
    def test_needs_channels(self, resonance):
        with pytest.raises(ConfigurationError):
            DecayConfig(resonance=resonance, channels=(), detector=Detector.ideal())

    def test_duplicate_labels(self, resonance):
        ch = Channel(label="a", strength=1.0, form_factor=FormFactor(1.0))
        with pytest.raises(ConfigurationError):
            DecayConfig(resonance=resonance, channels=(ch, ch), detector=Detector.ideal())

    def test_detector_labels_must_name_channels(self, resonance):
        # accepted, a misspelt label would leave "main" at full efficiency:
        # registered fraction 1 instead of 0
        main = Channel(label="main", strength=1.0, form_factor=FormFactor(1.0))
        with pytest.raises(ConfigurationError, match="mian"):
            DecayConfig(resonance=resonance, channels=(main,), detector=Detector({"mian": 0.0}))
        config = normalize(DecayConfig(resonance=resonance, channels=(main,),
                                       detector=Detector({"main": 0.0})))
        assert registered_fraction(config) == 0.0

    def test_normalization_cannot_be_claimed(self):
        # a claimed normalization of these strengths would give a decay probability of 7.93
        raw = DecayConfig(
            resonance=ResonancePole(energy=2.0, width=0.2),
            channels=(Channel(label="a", strength=10.0, form_factor=FormFactor(1.0)),),
            detector=Detector.ideal(),
        )
        for claim in ({"normalized": True}, {"rescale": 2.0}):
            with pytest.raises(TypeError):
                DecayConfig(resonance=raw.resonance, channels=raw.channels,
                            detector=raw.detector, **claim)
            with pytest.raises(TypeError):
                replace(raw, **claim)
        with pytest.raises(ValueError, match="init=False"):
            replace(raw, _integrals={"a": 1.0})
        with pytest.raises(AttributeError):
            raw.normalized = True
        assert not raw.normalized
        assert registered_fraction(normalize(raw)) == pytest.approx(1.0, rel=1e-12)

    def test_replaced_config_is_not_normalized(self):
        # kept normalized, the halved channel would register 3.96 of the decays,
        # with partial widths summing to 0.79 against the width 0.2
        config = normalize(DecayConfig(
            resonance=ResonancePole(energy=2.0, width=0.2),
            channels=(Channel(label="a", strength=10.0, form_factor=FormFactor(1.0)),),
            detector=Detector.ideal(),
        ))
        halved = replace(config, channels=(
            Channel(label="a", strength=5.0, form_factor=FormFactor(1.0)),))
        for copy in (replace(config), halved):
            assert not copy.normalized
            for rate in (registered_fraction, born_rate, lambda c: decay_probability(c, 1e3)):
                with pytest.raises(StateError):
                    rate(copy)
        assert total_width_check(normalize(halved)) == pytest.approx(0.2, rel=1e-12)

    def test_channel_lookup(self, config3):
        assert config3.channel("b").label == "b"
        with pytest.raises(ChannelLookupError):
            config3.channel("nope")

    def test_rates_require_normalization(self, resonance):
        raw = DecayConfig(
            resonance=resonance,
            channels=(Channel(label="a", strength=1.0, form_factor=FormFactor(1.0)),),
            detector=Detector.ideal(),
        )
        with pytest.raises(StateError):
            decay_probability(raw, 1.0)
        with pytest.raises(StateError):
            born_rate(raw)

    def test_zero_coupling_cannot_normalize(self, resonance):
        raw = DecayConfig(
            resonance=resonance,
            channels=(Channel(label="a", strength=0.0, form_factor=FormFactor(1.0)),),
            detector=Detector.ideal(),
        )
        with pytest.raises(NormalizationError):
            normalize(raw)


class TestWidths:
    def test_partial_width_against_reference_quadrature(self, config3, resonance):
        for c in config3.channels:
            ref, _ = quad(
                lambda e, c=c: c.form_factor(e) * breit_wigner_density(resonance, e),
                0.0,
                np.inf,
                limit=200,
            )
            assert partial_width(config3, c.label) == pytest.approx(
                2.0 * np.pi * c.strength * ref, rel=1e-9
            )

    def test_widths_sum_to_resonance_width(self, config3, resonance):
        assert total_width_check(config3) == pytest.approx(
            resonance.width, rel=1e-10
        )

    def test_normalize_integrates_each_channel_once(self, config3, monkeypatch):
        # the widths reuse normalize's integrals, with the same arithmetic
        # as integrating again; a replaced configuration integrates afresh
        calls = []
        real = goldenrule.integrate_lorentzian
        monkeypatch.setattr(goldenrule, "integrate_lorentzian",
                            lambda *args: calls.append(args) or real(*args))
        config = normalize(replace(config3))
        assert len(calls) == len(config.channels)
        width = total_width_check(config)
        assert len(calls) == len(config.channels)
        assert width == total_width_check(replace(config))
        assert len(calls) == 2 * len(config.channels)

    def test_rates_reuse_the_weighted_integrals(self, resonance, monkeypatch):
        # normalize integrates each listed channel once more, weighted; the
        # rates then integrate nothing, where 50 probabilities made 100
        # calls on two channels
        calls = []
        real = goldenrule.integrate_lorentzian
        monkeypatch.setattr(goldenrule, "integrate_lorentzian",
                            lambda *args: calls.append(args) or real(*args))
        channels = (Channel(label="seen", strength=1.0, form_factor=FormFactor(1.0)),
                    Channel(label="dim", strength=0.4, form_factor=FormFactor(2.0)))
        raw = DecayConfig(resonance=resonance, channels=channels,
                          detector=Detector({"dim": lambda e: 0.5 + 0.0 * np.asarray(e)}))
        config = normalize(raw)
        assert len(calls) == 3
        rates = [decay_probability(config, 0.1 * i) for i in range(50)]
        rates += [decay_rate(config, 1.0), partial_rate(config, "dim", 1.0)]
        assert len(calls) == 3
        fraction = registered_fraction(config)
        for label in ("seen", "dim"):
            c = config.channel(label)
            assert partial_rate(config, label, 0.0) == (
                2.0 * math.pi * c.strength * goldenrule._channel_integral(config, c, weighted=True))
        assert rates[49] == fraction * (1.0 - math.exp(-resonance.width * (0.1 * 49)))
        assert replace(config)._weighted is None

    def test_normalize_preserves_branching_ratios(self, resonance, config3):
        raw_strengths = (1.0, 0.6, 2.2)
        new_strengths = [c.strength for c in config3.channels]
        ratios = [n / r for n, r in zip(new_strengths, raw_strengths)]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-14)
        assert ratios[0] == pytest.approx(ratios[2], rel=1e-14)


class TestDecayLaw:
    def test_probability_starts_at_zero(self, config3):
        assert decay_probability(config3, 0.0) == 0.0

    def test_exponential_law(self, config3, resonance):
        g = resonance.width
        for t in np.linspace(0.0, 20.0 / g, 9):
            expected = 1.0 - np.exp(-g * t)
            assert decay_probability(config3, float(t)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_rate_is_probability_derivative(self, config3):
        h = 1e-5
        t = 1.0
        num = (decay_probability(config3, t + h) - decay_probability(config3, t - h)) / (
            2.0 * h
        )
        assert decay_rate(config3, t) == pytest.approx(num, rel=1e-8)

    def test_partial_rates_sum_to_total(self, config3):
        t = 2.5
        total = sum(partial_rate(config3, c.label, t) for c in config3.channels)
        assert total == pytest.approx(decay_rate(config3, t), rel=1e-10)

    def test_forward_only(self, config3):
        with pytest.raises(ArrowOfTimeError):
            decay_probability(config3, -1e-9)
        with pytest.raises(ArrowOfTimeError):
            decay_rate(config3, -1.0)
        with pytest.raises(ArrowOfTimeError):
            partial_rate(config3, "a", -1.0)

    def test_registered_fraction_with_blind_channel(self, resonance):
        channels = (
            Channel(label="seen", strength=1.0, form_factor=FormFactor(1.0)),
            Channel(label="dim", strength=1.0, form_factor=FormFactor(1.0)),
        )
        config = normalize(
            DecayConfig(
                resonance=resonance,
                channels=channels,
                detector=Detector({"dim": 0.5}),
            )
        )
        # equal channels, one at half efficiency: R = (1 + 0.5) / 2
        assert registered_fraction(config) == pytest.approx(0.75, rel=1e-10)
        assert decay_probability(config, 1e6) == pytest.approx(0.75, rel=1e-9)


class TestBornLimit:
    def test_born_rate_is_peak_evaluation(self, config3, resonance):
        expected = 2.0 * np.pi * sum(
            c.strength * c.form_factor(resonance.energy) for c in config3.channels
        )
        assert born_rate(config3) == pytest.approx(expected, rel=1e-14)

    def test_gap_closes_linearly_in_width(self):
        gaps = []
        for width in (0.15, 0.075, 0.0375):
            res = ResonancePole(energy=2.0, width=width)
            config = normalize(
                DecayConfig(
                    resonance=res,
                    channels=(
                        Channel(label="a", strength=1.0, form_factor=FormFactor(1.0)),
                    ),
                    detector=Detector.ideal(),
                )
            )
            gaps.append(born_gap(config))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.25)
        assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.25)

    def test_delta_limit_check(self):
        w = FormFactor(1.0)
        errors = bw_delta_limit_check(2.0, (0.2, 0.1, 0.05), w)
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.25)

    def test_delta_limit_needs_decreasing_widths(self):
        with pytest.raises(ConfigurationError):
            bw_delta_limit_check(2.0, (0.1, 0.2), FormFactor(1.0))
        with pytest.raises(ConfigurationError):
            bw_delta_limit_check(2.0, (), FormFactor(1.0))
