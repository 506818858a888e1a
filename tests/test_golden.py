"""Output bytes of the sweep, region and validate commands against committed files.

tests/data/make_golden.py wrote the golden files; each case is run here
again through the CLI and must reproduce them byte for byte. The sweep
cases run serially and on a pool of two threads (these grids are far
smaller than a pool needs, so the `one_pair_per_worker` fixture lowers
that need); the region case runs in the calling thread at either worker
count. The coarse self-check report is written as `entharvest validate
--grid coarse --out` writes it.
"""

import importlib.util
from pathlib import Path

import pytest

_GENERATOR = Path(__file__).parent / "data" / "make_golden.py"
_spec = importlib.util.spec_from_file_location("make_golden", _GENERATOR)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.mark.usefixtures("one_pair_per_worker")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(make_golden.CASES))
def test_bytes_match_the_golden_file(tmp_path, capsys, real_pools, case, workers):
    out = tmp_path / case
    rc = make_golden.run_case(case, out, workers)
    assert rc == (1 if "failing" in case else 0)
    assert real_pools == ([] if workers == 1 or make_golden.CASES[case][0] == "region" else [2])
    capsys.readouterr()
    assert out.read_bytes() == (make_golden.DATA / case).read_bytes()


def test_coarse_report_matches_the_golden_file(tmp_path, capsys):
    out = tmp_path / make_golden.VALIDATE
    assert make_golden.run_validate(out) == 0
    capsys.readouterr()
    assert out.read_bytes() == (make_golden.DATA / make_golden.VALIDATE).read_bytes()
