"""Tests for storage and table rendering."""

import numpy as np
import pytest

from repro.experiments.storage import (
    load_csv,
    load_json,
    load_required_queries_sample,
    save_csv,
    save_json,
)
from repro.experiments.tables import format_cell, render_kv, render_table


class TestJson:
    def test_roundtrip_dict(self, tmp_path):
        path = save_json(tmp_path / "x.json", {"a": 1, "b": [1.5, 2.5]})
        assert load_json(path) == {"a": 1, "b": [1.5, 2.5]}

    def test_numpy_types_converted(self, tmp_path):
        obj = {
            "i": np.int64(3),
            "f": np.float64(1.5),
            "arr": np.array([1, 2]),
            "flag": np.bool_(True),
        }
        path = save_json(tmp_path / "np.json", obj)
        blob = load_json(path)
        assert blob == {"i": 3, "f": 1.5, "arr": [1, 2], "flag": True}

    def test_dataclass_serialized(self, tmp_path):
        from repro.experiments.stats import boxplot_stats

        stats = boxplot_stats([1, 2, 3])
        blob = load_json(save_json(tmp_path / "d.json", stats))
        assert blob["median"] == 2

    def test_nested_dirs_created(self, tmp_path):
        path = save_json(tmp_path / "a" / "b" / "c.json", [1])
        assert path.exists()


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rows = [{"x": 1, "y": "a"}, {"x": 2, "y": "b"}]
        path = save_csv(tmp_path / "t.csv", rows)
        back = load_csv(path)
        assert back[0]["x"] == "1"
        assert back[1]["y"] == "b"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_csv(tmp_path / "e.csv", [])

    def test_explicit_fieldnames(self, tmp_path):
        rows = [{"x": 1, "y": 2}]
        path = save_csv(tmp_path / "f.csv", rows, fieldnames=["y", "x"])
        text = path.read_text()
        assert text.splitlines()[0] == "y,x"


class TestRequiredQueriesSampleRoundTrip:
    def _sample(self, algorithm):
        from repro.experiments.runner import RequiredQueriesSample

        return RequiredQueriesSample(
            n=150,
            k=3,
            channel="z-channel(p=0.1)",
            values=[20, 24, 20],
            failures=1,
            algorithm=algorithm,
        )

    @pytest.mark.parametrize("algorithm", ["greedy", "amp"])
    def test_roundtrip_preserves_algorithm(self, tmp_path, algorithm):
        sample = self._sample(algorithm)
        path = save_json(tmp_path / "sample.json", sample)
        loaded = load_required_queries_sample(path)
        assert loaded == sample
        assert loaded.algorithm == algorithm
        assert repr(loaded) == repr(sample)
        assert f"algorithm='{algorithm}'" in repr(loaded)

    def test_pre_algorithm_artifacts_load_as_greedy(self, tmp_path):
        # Sweep artifacts written before the field existed carry no
        # algorithm key; they must rehydrate as greedy samples.
        legacy = {
            "n": 100,
            "k": 4,
            "channel": "noiseless",
            "values": [12, 15],
            "failures": 0,
        }
        path = save_json(tmp_path / "legacy.json", legacy)
        loaded = load_required_queries_sample(path)
        assert loaded.algorithm == "greedy"
        assert loaded.values == [12, 15]
        # dict input is accepted directly, too
        assert load_required_queries_sample(legacy) == loaded
        # artifacts from runs that recorded a simulation engine load
        # unchanged: the field is ignored
        engine_tagged = dict(legacy, meta={"engine": "legacy"}, engine="batch")
        assert load_required_queries_sample(engine_tagged) == loaded


class TestTables:
    def test_render_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_format_cell_floats(self):
        assert format_cell(0.000123456) == "1.235e-04"
        assert format_cell(1234567.0) == "1.235e+06"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(float("nan")) == "nan"
        assert format_cell(0.0) == "0"

    def test_format_cell_non_float(self):
        assert format_cell(7) == "7"
        assert format_cell(True) == "True"
        assert format_cell("x") == "x"

    def test_render_kv(self):
        text = render_kv("Params", [("n", 100), ("p", 0.25)])
        assert "Params" in text
        assert "n" in text and "100" in text
