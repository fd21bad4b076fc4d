from gumbelsys import SystemModel, Topology


def series(mus, sigma=1.0) -> SystemModel:
    return SystemModel(Topology.SERIES, tuple(mus), sigma)


def parallel(mus, sigma=1.0) -> SystemModel:
    return SystemModel(Topology.PARALLEL, tuple(mus), sigma)
