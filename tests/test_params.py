"""Device parameters, derived constants, and chain coefficients."""

from __future__ import annotations

import json
import math

import pytest

from clusterchain.errors import ConfigError, InvalidConfigurationError
from clusterchain.params import (
    ChainCoefficients,
    DeviceParams,
    chain_coefficients,
    derive_constants,
    load_device_params,
)


def test_reference_defaults(device):
    assert device.alpha == 0.046
    assert device.beta == 0.62
    assert device.tau_f == 102.85e-9
    assert device.tau_s == 20e-12
    assert device.eta_c == 0.99
    assert device.eta_sd == 0.99
    assert device.c_f == 2.0e8
    assert device.c_ch == 7.6e7


class TestDerivedConstants:
    def test_p_chip(self, consts):
        # exp(-0.62 * (20e-12 s * 7.6e7 m/s)) = exp(-0.62 * 1.52e-3 m)
        assert consts.p_chip == pytest.approx(math.exp(-9.424e-4), rel=1e-14)

    def test_p_fib(self, consts):
        # exp(-0.046/km * (102.85e-9 s * 2e8 m/s) / 1000) = exp(-0.046 * 0.02057)
        assert consts.p_fib == pytest.approx(math.exp(-0.046 * 0.02057), rel=1e-14)

    def test_matched_feed_forward_losses(self, consts):
        # the reference device is tuned so that one on-chip step and one
        # in-fiber step cost the same
        assert abs(consts.p_chip - consts.p_fib) < 1e-5

    def test_eta_ghz(self, consts):
        assert consts.eta_ghz == pytest.approx(0.99 / 1.01, rel=1e-14)

    def test_p_ghz(self, consts):
        # (eta (2 - eta))**3 / 32 with eta = 0.99
        assert consts.p_ghz == pytest.approx((0.99 * 1.01) ** 3 / 32.0, rel=1e-14)

    def test_boosted_pair_factor(self, consts):
        # 0.5 eta^2 + 0.25 eta^4 at eta_sd = 0.99
        assert consts.boosted_pair_factor == pytest.approx(0.7301990025, abs=1e-12)

    def test_perfect_device_limits(self):
        ideal = DeviceParams(eta_c=1.0, eta_sd=1.0, tau_s=1e-30, tau_f=1e-30)
        c = derive_constants(ideal)
        assert c.eta_ghz == pytest.approx(1.0)
        assert c.p_ghz == pytest.approx(1.0 / 32.0)
        assert c.boosted_pair_factor == pytest.approx(0.75)


@pytest.mark.parametrize("field", ["alpha", "beta", "tau_f", "tau_s", "c_f", "c_ch"])
def test_positive_fields_validated(field):
    with pytest.raises(InvalidConfigurationError, match=field):
        DeviceParams(**{field: 0.0})


@pytest.mark.parametrize("field", ["eta_c", "eta_sd"])
@pytest.mark.parametrize("value", [-0.1, 1.0001])
def test_efficiencies_validated(field, value):
    with pytest.raises(InvalidConfigurationError, match=field):
        DeviceParams(**{field: value})


class TestChainCoefficients:
    def test_frozen_reference_values(self, device, consts):
        # regression values for m=4, k=8, boosted; derived once from the
        # definitions A = m p_pair / p_fib^2, B = p_chip^(k+2) eta_ghz eta_c p_fib
        co = chain_coefficients(consts, device, 4, 8)
        assert co.a_coeff == pytest.approx(2.9263286746679356, rel=1e-12)
        assert co.b_coeff == pytest.approx(0.9603848181887004, rel=1e-12)
        assert co.c_coeff == pytest.approx(0.9612939835787708, rel=1e-12)

    def test_b_is_c_times_fiber_step(self, device, consts):
        co = chain_coefficients(consts, device, 4, 8)
        assert co.b_coeff == pytest.approx(co.c_coeff * consts.p_fib, rel=1e-15)

    def test_a_linear_in_m(self, device, consts):
        a1 = chain_coefficients(consts, device, 3, 8).a_coeff
        a2 = chain_coefficients(consts, device, 6, 8).a_coeff
        assert a2 == pytest.approx(2 * a1, rel=1e-14)

    def test_unboosted_pair_factor(self, device, consts):
        boosted = chain_coefficients(consts, device, 4, 8, boosted=True)
        plain = chain_coefficients(consts, device, 4, 8, boosted=False)
        ratio = plain.a_coeff / boosted.a_coeff
        assert ratio == pytest.approx(
            0.5 * device.eta_sd**2 / consts.boosted_pair_factor, rel=1e-14
        )
        # B and C carry no fusion factor
        assert plain.b_coeff == boosted.b_coeff
        assert plain.c_coeff == boosted.c_coeff

    def test_ab_squared(self):
        co = ChainCoefficients(a_coeff=2.0, b_coeff=0.5, c_coeff=0.6)
        assert co.ab_squared == pytest.approx(0.5)

    @pytest.mark.parametrize("m,k", [(0, 8), (4, 0)])
    def test_bounds(self, device, consts, m, k):
        with pytest.raises(InvalidConfigurationError):
            chain_coefficients(consts, device, m, k)

    @pytest.mark.parametrize("change", [{"tau_f": 0.05}, {"tau_f": 0.04}, {"alpha": 1e300}],
                             ids=["underflow", "overflow", "alpha"])
    def test_non_finite_a_is_refused(self, change):
        # p_fib**2 underflows to 0 at tau_f = 0.05 and to a subnormal at 0.04,
        # where m * pair_factor / p_fib**2 overflows to inf
        device = DeviceParams(**change)
        with pytest.raises(InvalidConfigurationError, match="alpha.*tau_f.*c_f"):
            chain_coefficients(derive_constants(device), device, 4, 8)

    def test_a_near_the_underflow_stays_finite(self):
        device = DeviceParams(tau_f=0.03)
        co = chain_coefficients(derive_constants(device), device, 4, 8)
        assert co.a_coeff == pytest.approx(1.5705625491198947e240, rel=1e-12)
        assert co.ab_squared == pytest.approx(2.6990670605597082, rel=1e-12)


class TestLoadDeviceParams:
    def test_mapping_roundtrip(self):
        loaded = load_device_params({"alpha": 0.05, "eta_c": 0.9})
        assert loaded.alpha == 0.05
        assert loaded.eta_c == 0.9
        assert loaded.beta == 0.62  # untouched default

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="alpha_db"):
            load_device_params({"alpha_db": 0.2})

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError, match="eta_c"):
            load_device_params({"eta_c": "high"})
        with pytest.raises(ConfigError, match="eta_c"):
            load_device_params({"eta_c": True})

    def test_missing_fields_echoed(self, capsys):
        load_device_params({"alpha": 0.05})
        text = capsys.readouterr().err
        assert "beta" in text and "using default" in text
        assert "'alpha'" not in text  # the provided field is not echoed

    def test_json_file(self, tmp_path):
        path = tmp_path / "device.json"
        path.write_text(json.dumps({"alpha": 0.044, "c_f": 1.9e8}))
        loaded = load_device_params(str(path))
        assert loaded.alpha == 0.044
        assert loaded.c_f == 1.9e8

    def test_invalid_values_still_validated(self):
        with pytest.raises(InvalidConfigurationError, match="alpha"):
            load_device_params({"alpha": -1.0})
