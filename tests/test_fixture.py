"""The bundled mini fixture is exactly what its generator script writes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_script_regenerates_the_fixture_byte_for_byte(tmp_path):
    script = ROOT / "scripts" / "make_mini_fixture.py"
    spec = importlib.util.spec_from_file_location("make_mini_fixture", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(tmp_path)
    for name in ("mini_gps.csv", "mini_survey.csv"):
        assert (tmp_path / name).read_bytes() == (ROOT / "tests" / "data" / name).read_bytes(), name
