"""Shared helpers for the test suite."""

import numpy as np

import levylil as ll


def random_symmetric_measure(rng):
    """Random symmetric driftless measure spec drawn from all three variants."""
    kind = rng.integers(0, 3)
    if kind == 0:
        center = rng.uniform(0.5, 1.6)
        amp = rng.uniform(0.0, min(center - 0.1, 1.9 - center))
        profiles = [ll.ConstantProfile(center),
                    ll.SinusoidalProfile(center, amp, rng.uniform(0.3, 2.0)),
                    ll.TanhRampProfile(center, amp, rng.uniform(0.3, 2.0))]
        alpha = profiles[rng.integers(0, len(profiles))]
        coeff = "normalized" if rng.random() < 0.5 else ll.ConstantProfile(rng.uniform(0.05, 2.0))
        return ll.PowerLawMeasure(alpha=alpha, coefficient=coeff)
    if kind == 1:
        n = rng.integers(1, 4)
        atoms = []
        for _ in range(n):
            loc = rng.uniform(0.05, 3.0)
            mass = rng.uniform(0.1, 2.0)
            atoms += [(loc, mass), (-loc, mass)]
        return ll.AtomicMeasure(atoms=tuple(atoms))
    grid = np.geomspace(10 ** rng.uniform(-4, -2), 10 ** rng.uniform(1, 3), 80)
    slope = -1.0 - rng.uniform(0.3, 1.8)
    dens = rng.uniform(0.1, 2.0) * grid ** slope
    return ll.TabulatedMeasure(grid=tuple(grid), density=tuple(dens))


def path_generator(master_seed, path_index):
    """Path ``path_index``'s generator built the textbook way, a SeedSequence
    spawn key under a Philox bit generator: the reference for the vectorized
    keys of ``levylil.simulate._philox_keys``."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.Philox(ss))
