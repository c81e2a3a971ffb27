"""Deterministic per-trial seeding."""
import numpy as np


def trial_rng(base_seed: int, *fields) -> np.random.Generator:
    """Independent, reproducible PRNG for one trial.

    ``fields`` identify the trial (algorithm index, sample number, k, trial
    number, ...); SeedSequence mixes them so streams are independent across
    trials and runs with the same base seed are reproducible (§4.1's
    "different seed values per algorithm run").
    """
    ints = [base_seed] + [int(f) for f in fields]
    return np.random.default_rng(np.random.SeedSequence(ints))

