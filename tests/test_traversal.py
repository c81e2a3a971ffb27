"""Tables 8/9: cost measurement identities and the conditioning arithmetic."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments import tables, traversal
from tests.helpers import path_graph, star_graph

# Table 8 values under the default seeds, pinned exactly: the counters are
# results, so a refactor of how they are measured must reproduce them.
TABLE8_TEST_PROFILE = [
    ("Karate", "UC_0.1", "oneshot", 64.8, 360.2),
    ("Karate", "UC_0.1", "snapshot", 69.7, 41.8),
    ("Karate", "UC_0.1", "ris", 2.5, 15.0),
]
TABLE8_ROWS_T20 = {
    ("BA_s", "IWC"): [
        ("oneshot", 2356.0, 1929.5),
        ("snapshot", 2317.8, 1317.8),
        ("ris", 2.6, 4.5),
    ],
    ("BA_d", "UC_0.01"): [
        ("oneshot", 1128.8, 13118.5),
        ("snapshot", 1129.8, 129.8),
        ("ris", 1.1, 10.1),
    ],
}


class TestTable8Measurements:
    def test_oneshot_deterministic_path(self):
        # p=1 path of 4: scan from each candidate activates the suffix.
        g = path_graph(4, p=1.0)
        v, e = traversal.sample_cost(g, "oneshot", trials=3)
        assert v == 4 + 3 + 2 + 1
        assert e == 3 + 2 + 1 + 0

    def test_snapshot_deterministic_path(self):
        g = path_graph(4, p=1.0)
        v, e = traversal.sample_cost(g, "snapshot", trials=3)
        assert v == 10 and e == 6

    def test_ris_deterministic_path(self):
        # RR set of a uniform target on a p=1 path: target t has t+1
        # ancestors; E|R| = (1+2+3+4)/4 = 2.5; w(R) = Σ d⁻ over members.
        g = path_graph(4, p=1.0)
        v, e = traversal.ris_cost(g, trials=4000)
        assert v == pytest.approx(2.5, abs=0.1)
        # member in-degrees: vertex 0 has 0, others 1 → w = |R| - 1.
        assert e == pytest.approx(1.5, abs=0.1)

    def test_oneshot_equals_snapshot_vertex_cost(self):
        # Expected vertex costs match (both scan Σ_v Inf(v)); check on a
        # stochastic graph with many trials.
        g = star_graph(8, p=0.4)
        v1, _ = traversal.sample_cost(g, "oneshot", trials=1500)
        v2, _ = traversal.sample_cost(g, "snapshot", trials=1500)
        assert v1 == pytest.approx(v2, rel=0.06)

    def test_snapshot_edge_cost_scales_with_p(self):
        # Snapshot scans only live edges: edge cost ≈ p × Oneshot's.
        g = star_graph(10, p=0.2)
        _, e_one = traversal.sample_cost(g, "oneshot", trials=1500)
        _, e_snap = traversal.sample_cost(g, "snapshot", trials=1500)
        assert e_snap / e_one == pytest.approx(0.2, abs=0.05)

    def test_table8_rows_shape(self):
        g = path_graph(3, p=0.5)
        rows = traversal.table8_rows(g, "net", "set", trials=20)
        assert [r["alg"] for r in rows] == ["oneshot", "snapshot", "ris"]
        rows2 = traversal.table8_rows(
            g, "net", "set", trials=20, include_oneshot=False
        )
        assert [r["alg"] for r in rows2] == ["snapshot", "ris"]


class TestTable8Pins:
    def test_table8_test_profile(self):
        t8 = tables.table8("test")
        got = list(t8[["network", "setting", "alg", "vertex_cost",
                       "edge_cost"]].itertuples(index=False, name=None))
        assert got == TABLE8_TEST_PROFILE

    @pytest.mark.parametrize("network,setting", sorted(TABLE8_ROWS_T20))
    def test_table8_rows_t20(self, network, setting):
        g = tables.cached_graph(None, network, setting)
        rows = traversal.table8_rows(g, network, setting, trials=20)
        got = [(r["alg"], r["vertex_cost"], r["edge_cost"]) for r in rows]
        assert got == TABLE8_ROWS_T20[(network, setting)]


class TestTable9Arithmetic:
    def _frames(self):
        t8 = pd.DataFrame(
            [
                {"network": "N", "setting": "S", "alg": "oneshot",
                 "vertex_cost": 100.0, "edge_cost": 900.0},
                {"network": "N", "setting": "S", "alg": "snapshot",
                 "vertex_cost": 100.0, "edge_cost": 100.0},
                {"network": "N", "setting": "S", "alg": "ris",
                 "vertex_cost": 1.0, "edge_cost": 9.0},
            ]
        )
        t6 = pd.DataFrame(
            [{"network": "N", "setting": "S", "k": 1,
              "median_number_ratio": 2.0, "n_points": 3}]
        )
        t7 = pd.DataFrame(
            [{"network": "N", "setting": "S", "k": 1,
              "median_number_ratio": 50.0, "median_size_ratio": 0.1,
              "n_points": 3}]
        )
        return t8, t6, t7

    def test_cost_per_gamma(self):
        t8, t6, t7 = self._frames()
        t9 = tables.table9(t6, t7, t8)
        by_alg = t9.set_index("alg")["cost_per_gamma"]
        assert by_alg["oneshot"] == 1000.0 * 2.0
        assert by_alg["snapshot"] == 200.0
        assert by_alg["ris"] == 10.0 * 50.0

    def test_missing_ratio_gives_nan(self):
        t8, t6, t7 = self._frames()
        t6 = t6[t6["network"] != "N"]
        t9 = tables.table9(t6, t7, t8)
        one = t9[t9["alg"] == "oneshot"]["cost_per_gamma"].iloc[0]
        assert np.isnan(one)

    def test_only_k1_ratios_used(self):
        t8, t6, t7 = self._frames()
        t6 = pd.concat(
            [t6, pd.DataFrame([{"network": "N", "setting": "S", "k": 4,
                                "median_number_ratio": 999.0, "n_points": 3}])]
        )
        t9 = tables.table9(t6, t7, t8)
        assert t9[t9["alg"] == "oneshot"]["cost_per_gamma"].iloc[0] == 2000.0
