"""Report serialization: non-finite floats never reach a JSON file."""

import math

import pytest

from anyonlab.report import dumps_report, write_manifest


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_refused(value, tmp_path):
    with pytest.raises(ValueError, match="JSON compliant"):
        dumps_report({"x": [1.0, value]})
    with pytest.raises(ValueError, match="JSON compliant"):
        write_manifest([tmp_path / "r.json"], "test", [], {"x": value}, 0.0)
    assert not (tmp_path / "r.json.manifest.json").exists()

