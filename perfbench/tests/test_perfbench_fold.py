"""Folding cProfile rows into self time per repro package."""

from types import SimpleNamespace

import pytest

from perfbench.fold import fold_self_time, package_of, profile


def _row(tottime):
    return (1, 1, tottime, tottime, {})


def test_hand_built_stats_fold_by_package():
    stats = SimpleNamespace(
        stats={
            ("/x/src/repro/sim/engine.py", 10, "run"): _row(0.5),
            ("/x/src/repro/sim/session.py", 20, "feed"): _row(0.25),
            ("/x/src/repro/cache/policies/lru.py", 5, "touch"): _row(0.3),
            ("/x/src/repro/units.py", 1, "<module>"): _row(0.05),
            ("~", 0, "<built-in method builtins.len>"): _row(0.2),
            ("/usr/lib/python3.11/json/encoder.py", 1, "encode"): _row(0.1),
            ("C:\\src\\repro\\disk\\disk.py", 3, "submit"): _row(0.125),
        }
    )
    assert fold_self_time(stats) == pytest.approx(
        {
            "sim": 0.75,
            "cache": 0.3,
            "units": 0.05,
            "builtins": 0.2,
            "other": 0.1,
            "disk": 0.125,
        }
    )


def test_package_of_needs_a_repro_path_component():
    assert package_of("/x/src/repro/core/opg.py") == "core"
    assert package_of("/x/src/notrepro/core/opg.py") == "other"
    assert package_of("/x/reprocessing/y.py") == "other"
    assert package_of("~") == "builtins"


def test_profile_folds_a_real_run():
    wall, folded = profile(lambda: sorted(range(20000), key=lambda v: -v))
    assert wall > 0
    assert folded["builtins"] > 0
    assert sum(folded.values()) <= wall * 1.5
