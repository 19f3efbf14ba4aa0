"""Golden bytes: two CLI cycles must reproduce the committed report.csv files.

Criterion 11 only compares two runs of the same code; these fixtures pin the
output itself, so a refactor that changes any reported byte fails here.
Regenerate the fixtures (only for a deliberate output change, noted in
CHANGES.md) with:

    PYTHONPATH=src:tests python tests/test_golden.py
"""
import sys
import tempfile
from pathlib import Path

import pytest

import returncast.cli as cli

FIXTURES = Path(__file__).parent / "fixtures"

FLAGS_ON_INI = """\
[models]
include_phasewise = true
include_polynomial = true
ts_seasonal = true
"""

# name -> (synth flags, generation, cycle month, config text or None)
CYCLES = {
    # the README demo: default config, gen2 at 2012-09
    "demo": (["--generations", "3", "--months-after-final-ga", "8"], "gen2", "2012-09", None),
    # seasonal synth with every optional model on, gen2 at trigger (2012-01) + 12
    "seasonal_flags": (
        ["--generations", "4", "--seasonal-amplitude", "0.1", "--months-after-final-ga", "20"],
        "gen2",
        "2013-01",
        FLAGS_ON_INI,
    ),
}


def run_report(name: str, work: Path) -> bytes:
    synth_flags, generation, cycle, config_text = CYCLES[name]
    data = work / "data"
    assert cli.main(["synth", "--seed", "0", *synth_flags, "--out", str(data)]) == 0
    extra = []
    if config_text is not None:
        ini = work / "config.ini"
        ini.write_text(config_text)
        extra = ["--config", str(ini)]
    out = work / "run"
    assert cli.main([
        "run-cycle",
        "--history", str(data / "history.csv"),
        "--ga", str(data / "ga.csv"),
        "--generation", generation,
        "--cycle", cycle,
        "--out", str(out),
        *extra,
    ]) == 0
    return (out / "report.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_report_matches_golden_bytes(name, tmp_path):
    expected = (FIXTURES / f"{name}_report.csv").read_bytes()
    assert run_report(name, tmp_path) == expected


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    for name in sorted(CYCLES):
        with tempfile.TemporaryDirectory() as work:
            (FIXTURES / f"{name}_report.csv").write_bytes(run_report(name, Path(work)))
            print(f"wrote {FIXTURES / f'{name}_report.csv'}", file=sys.stderr)
