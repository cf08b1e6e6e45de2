"""Tests for modelcard (parameter deck) serialization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import default_nfet, default_pfet, golden_nfet
from repro.device import modelcard
from repro.errors import ConfigError


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [default_nfet, default_pfet, golden_nfet])
    def test_dumps_loads_identity(self, factory):
        p = factory()
        q = modelcard.loads(modelcard.dumps(p))
        assert q == p

    def test_file_roundtrip(self, tmp_path):
        p = default_nfet().copy(VTH0=0.2345, nfin=3)
        path = tmp_path / "nfet.mdl"
        modelcard.save(p, path, name="cal_nfet")
        q = modelcard.load(path)
        assert q == p

    @given(
        vth0=st.floats(min_value=0.05, max_value=0.45),
        uo=st.floats(min_value=0.002, max_value=0.2),
        nfin=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip_preserves_floats_exactly(self, vth0, uo, nfin):
        p = default_nfet().copy(VTH0=vth0, UO=uo, nfin=nfin)
        q = modelcard.loads(modelcard.dumps(p))
        assert q.VTH0 == vth0
        assert q.UO == uo
        assert q.nfin == nfin


class TestErrorHandling:
    def test_unknown_parameter_rejected(self):
        text = modelcard.dumps(default_nfet()) + "+ BOGUS = 1.0\n"
        with pytest.raises(ValueError, match="unknown"):
            modelcard.loads(text)

    def test_duplicate_parameter_rejected(self):
        text = modelcard.dumps(default_nfet()) + "+ VTH0 = 0.5\n"
        with pytest.raises(ValueError, match="duplicate.*VTH0"):
            modelcard.loads(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_parameter_rejected(self, value):
        text = modelcard.dumps(default_nfet()).replace(
            "+ VTH0 = 0.2\n", f"+ VTH0 = {value}\n")
        assert f"VTH0 = {value}" in text
        with pytest.raises(ConfigError) as err:
            modelcard.loads(text)
        assert err.value.field == "VTH0"

    def test_missing_polarity_rejected(self):
        with pytest.raises(ValueError, match="polarity"):
            modelcard.loads("+ VTH0 = 0.2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            modelcard.loads("+ VTH0 0.2\n+ polarity = n\n")

    def test_header_present(self):
        assert modelcard.dumps(default_nfet()).startswith(
            "* repro cryogenic FinFET modelcard"
        )
