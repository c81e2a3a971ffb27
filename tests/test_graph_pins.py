"""Every influence graph the jobs use, pinned array for array.

Within each CSR row the neighbour order sets which coin each edge gets, so
a change to how graphs are built must keep all arrays byte-identical, not
only the edge sets. The digests were recorded from the Spark-built graphs
(default broadcast-join session) that produced the committed tables.
"""
import hashlib

import numpy as np
import pytest

from repro.experiments.tables import cached_graph

# (network, setting): (sha256[:16] of the six CSR arrays,
#                      out.p_row is None, in_.p_row is None)
PINS = {
    ("Karate", "UC_0.1"): ("16e7dcce1363ab53", False, False),
    ("Karate", "UC_0.01"): ("becb03b21361a38e", False, False),
    ("Karate", "IWC"): ("c21269f1016c430d", True, False),
    ("Karate", "OWC"): ("ca108a0b11d3af2e", False, True),
    ("Physicians_syn", "UC_0.1"): ("31b2ed6d8302cca6", False, False),
    ("Physicians_syn", "UC_0.01"): ("582ba9e699a749e9", False, False),
    ("Physicians_syn", "IWC"): ("ac1e3f44acee3818", True, False),
    ("Physicians_syn", "OWC"): ("a233a1a864ef30be", False, True),
    ("GrQc_syn", "UC_0.1"): ("a7ef6fc4530eeb8a", False, False),
    ("GrQc_syn", "UC_0.01"): ("e477678375f22db9", False, False),
    ("GrQc_syn", "IWC"): ("5cbbf5ca9c4bf486", True, False),
    ("GrQc_syn", "OWC"): ("d6893389281d1aea", False, True),
    ("WikiVote_syn", "UC_0.1"): ("681eb8d9783b1b60", False, False),
    ("WikiVote_syn", "UC_0.01"): ("df042b80084a6feb", False, False),
    ("WikiVote_syn", "IWC"): ("58894940be4bc56b", True, False),
    ("WikiVote_syn", "OWC"): ("38213b6db243f8de", False, True),
    ("youtube_lite", "UC_0.1"): ("d85fb60e59fe636f", False, False),
    ("youtube_lite", "UC_0.01"): ("3b728b01dad015be", False, False),
    ("youtube_lite", "IWC"): ("aac088d6fc2d8e39", True, False),
    ("youtube_lite", "OWC"): ("3ee05f0ce8b6df45", False, True),
    ("pokec_lite", "UC_0.1"): ("4884e9c882eefd6c", False, False),
    ("pokec_lite", "UC_0.01"): ("d25c6899d69b3c3b", False, False),
    ("pokec_lite", "IWC"): ("67cc7511a32e2936", True, False),
    ("pokec_lite", "OWC"): ("a4efad0fe8b37422", False, True),
    ("BA_s", "UC_0.1"): ("495b7172c063b293", False, False),
    ("BA_s", "UC_0.01"): ("69005457a746f44d", False, False),
    ("BA_s", "IWC"): ("64b5fe29fced2090", True, False),
    ("BA_s", "OWC"): ("ad5ba0c84bf979f9", False, True),
    ("BA_d", "UC_0.1"): ("a23e85b371210a2a", False, False),
    ("BA_d", "UC_0.01"): ("dd178b20cd651e67", False, False),
    ("BA_d", "IWC"): ("d3a020e965e0fb81", True, False),
    ("BA_d", "OWC"): ("ceb9d6258c31f270", False, True),
}


def _digest(g) -> str:
    h = hashlib.sha256()
    for a in (g.out.indptr, g.out.nbr, g.out.p, g.in_.indptr, g.in_.nbr,
              g.in_.p):
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("network,setting", list(PINS))
def test_graph_pinned(network, setting):
    g = cached_graph(None, network, setting)
    assert (_digest(g), g.out.p_row is None, g.in_.p_row is None) == PINS[
        network, setting
    ]
