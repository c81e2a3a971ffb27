"""Edge-probability assignment (paper §4.3) on pandas edge lists.

Four settings: UC_0.1, UC_0.01 (uniform constant), IWC (p(u,v) = 1/d⁻(v),
in-probabilities sum to 1 per vertex), OWC (p(u,v) = 1/d⁺(u), out-
probabilities sum to 1 per vertex). Edge order is kept, so the CSR built
from the result lists each row's neighbours in edge-list order.
"""
import pandas as pd

SETTINGS = ("UC_0.1", "UC_0.01", "IWC", "OWC")


def assign_probabilities(edges: pd.DataFrame, setting: str) -> pd.DataFrame:
    """Return (src, dst, p) for the given edge-probability setting."""
    out = edges[["src", "dst"]]
    if setting in ("UC_0.1", "UC_0.01"):
        return out.assign(p=float(setting.removeprefix("UC_")))
    if setting in ("IWC", "OWC"):
        by = "dst" if setting == "IWC" else "src"
        return out.assign(p=1.0 / out.groupby(by)[by].transform("size"))
    raise ValueError(f"unknown setting {setting!r}; one of {SETTINGS}")
