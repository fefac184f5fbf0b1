"""The regression sentinel (``benchmarks/regress.py``) reads each
series' direction from the metrics-JSON document."""

import importlib.util
import os

from repro.obs.export import METRICS_SCHEMA, merge_metrics, metrics_dump

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "regress.py",
)
_SPEC = importlib.util.spec_from_file_location("regress", _PATH)
regress = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regress)


def document(name, values, better="lower"):
    """A merged trajectory as the committed ``BENCH_*.json`` hold it."""
    return {
        "schema": METRICS_SCHEMA,
        "series": {
            name: {"unit": "seconds", "better": better, "values": values}
        },
    }


def flagged(doc):
    return [flag["series"] for flag in regress.check_document(doc)]


def test_higher_is_better_series_flag_only_when_they_fall():
    name = "fleet.resync.speedup"
    assert flagged(document(name, [52.6, 90.1], "higher")) == []
    assert flagged(document(name, [3.75, 0.9], "higher")) == [name]
    assert regress.check_series(name, [0.95, 0.0], better="higher")


def test_lower_is_better_series_flag_when_they_rise():
    name = "store.replay[n8]"
    assert flagged(document(name, [0.010, 0.020])) == [name]
    assert flagged(document(name, [0.020, 0.010])) == []
    # Files written before series carried a direction read as "lower".
    legacy = document(name, [0.010, 0.020])
    del legacy["series"][name]["better"]
    assert flagged(legacy) == [name]


def test_merge_takes_the_direction_from_the_fresh_run():
    name = "store.shard_scaling.speedup_1_to_4"
    committed = metrics_dump({name: 3.75})
    assert committed["series"][name]["better"] == "lower"
    fresh = metrics_dump({name: 1.0}, better={name: "higher"})
    merged = merge_metrics(committed, fresh)
    assert merged["series"][name] == {
        "unit": "seconds",
        "better": "higher",
        "values": [3.75, 1.0],
    }
    assert flagged(merged) == [name]
