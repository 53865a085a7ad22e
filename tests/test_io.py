"""Tests for the JSON input and output layer."""

import io as _io
import json

import numpy as np
import pytest

from _expm_fixtures import random_cm
from gsep.certify import SeparabilityCertificate
from gsep.gaussian import tmss
from gsep.io import (
    SchemaError,
    dump_certificate,
    dump_cm,
    load_certificate,
    load_cm,
    parse_certificate,
    parse_cm,
)


class TestCmRoundTrip:
    def test_dump_load_dump_is_stable(self):
        cm = random_cm(2, 1, "mixed", seed=3)
        text = dump_cm(cm)
        again = dump_cm(parse_cm(text))
        assert text == again

    def test_round_trip_preserves_values(self):
        cm = tmss(0.7)
        back = parse_cm(dump_cm(cm))
        assert back.n == cm.n and back.m == cm.m
        np.testing.assert_allclose(back.gamma, cm.gamma, atol=0)

    def test_dump_ends_with_newline_and_sorted_keys(self):
        text = dump_cm(tmss(0.2))
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_load_from_path_and_stream(self, tmp_path):
        cm = random_cm(1, 1, "pure", seed=4)
        path = tmp_path / "state.json"
        path.write_text(dump_cm(cm), encoding="utf-8")
        from_path = load_cm(path)
        with open(path, encoding="utf-8") as handle:
            from_stream = load_cm(handle)
        np.testing.assert_allclose(from_path.gamma, cm.gamma, atol=0)
        np.testing.assert_allclose(from_stream.gamma, cm.gamma, atol=0)


class TestCmSchemaErrors:
    def good(self):
        return {"n": 1, "m": 1, "gamma": np.eye(4).tolist()}

    def test_bad_json(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_cm("{nope")

    def test_non_object_top_level(self):
        with pytest.raises(SchemaError, match="top-level"):
            parse_cm("[1, 2]")

    def test_missing_keys(self):
        with pytest.raises(SchemaError, match=r"missing keys: \['gamma', 'm'\]"):
            parse_cm(json.dumps({"n": 1}))

    @pytest.mark.parametrize("n", [0, -2, 1.5, "1", True])
    def test_bad_mode_counts(self, n):
        doc = self.good()
        doc["n"] = n
        with pytest.raises(SchemaError, match="positive integers"):
            parse_cm(json.dumps(doc))

    def test_gamma_not_list_of_rows(self):
        doc = self.good()
        doc["gamma"] = [1, 2, 3, 4]
        with pytest.raises(SchemaError, match="list of rows"):
            parse_cm(json.dumps(doc))

    def test_ragged_rows(self):
        doc = self.good()
        doc["gamma"][2] = [0.0, 0.0]
        with pytest.raises(SchemaError, match="ragged"):
            parse_cm(json.dumps(doc))

    def test_non_numeric_entries(self):
        doc = self.good()
        doc["gamma"][0][0] = "one"
        with pytest.raises(SchemaError, match="non-numeric"):
            parse_cm(json.dumps(doc))

    def test_non_finite_entries(self):
        doc = self.good()
        doc["gamma"][0][0] = None
        text = json.dumps(doc).replace("null", "NaN")
        with pytest.raises(SchemaError, match="non-finite"):
            parse_cm(text)

    def test_wrong_size(self):
        doc = self.good()
        doc["m"] = 2
        with pytest.raises(SchemaError, match="must be 6x6"):
            parse_cm(json.dumps(doc))

    def test_asymmetric_gamma_is_schema_error(self):
        doc = self.good()
        doc["gamma"][0][1] = 0.5
        with pytest.raises(SchemaError, match="symmetric"):
            parse_cm(json.dumps(doc))


class TestCertificateRoundTrip:
    def make(self):
        cert = SeparabilityCertificate(
            gamma_A=np.eye(2), gamma_B=2.0 * np.eye(4), P=np.zeros((6, 6)),
        )
        return cert, (0.0, 1.0, 0.0)

    def test_dump_load_dump_is_stable(self):
        text = dump_certificate(*self.make())
        assert parse_certificate(text)[1] == (0.0, 1.0, 0.0)
        assert dump_certificate(*parse_certificate(text)) == text

    def test_load_from_path(self, tmp_path):
        cert, margins = self.make()
        path = tmp_path / "cert.json"
        path.write_text(dump_certificate(cert, margins), encoding="utf-8")
        back, margins = load_certificate(path)
        np.testing.assert_allclose(back.gamma_B, cert.gamma_B, atol=0)
        assert margins[1] == 1.0

    def test_missing_keys(self):
        with pytest.raises(SchemaError, match="missing keys"):
            parse_certificate(json.dumps({"gamma_A": [[1.0]]}))

    @pytest.mark.parametrize("margins", [[0.0, 1.0], "big", [0.0, "x", 1.0],
                                         [True, False, True]])
    def test_bad_margins(self, margins):
        doc = json.loads(dump_certificate(*self.make()))
        doc["margins"] = margins
        with pytest.raises(SchemaError, match="three numbers"):
            parse_certificate(json.dumps(doc))

    def test_stream_input(self):
        cert, margins = self.make()
        stream = _io.StringIO(dump_certificate(cert, margins))
        back, _ = load_certificate(stream)
        np.testing.assert_allclose(back.P, cert.P, atol=0)
