import json
import pathlib

import numpy as np
import pytest

from graphene_spp.config import RunConfig

DATA_DIR = pathlib.Path(__file__).parent / "data"


def as_complex(pair):
    """Goldens store complex numbers as [re, im] pairs."""
    return complex(pair[0], pair[1])


def chain_matrix(couplings):
    """The symmetric tridiagonal matrix of a nearest-neighbour chain."""
    c = np.asarray(couplings, dtype=float)
    return np.diag(c, 1) + np.diag(c, -1)


def blow_up_kernel_rows(monkeypatch, rows, batch=None, riders=0):
    """Make experiments.propagate_batch_three return NaN on the given rows
    of every call with at least batch rows (of every call when batch is
    None), as a kernel that refused those devices would. A batch's first
    pass carries its probes as rider rows after its own
    (experiments._three_sheet_outputs), so rows index that call's batch
    part; riders > 0 also NaNs the last riders device rows of every call,
    the riders of a first pass and the probes run alone."""
    import graphene_spp.experiments as experiments

    kernel = experiments.propagate_batch_three

    def blow_up(h, omega1, *args, **kwargs):
        amps = kernel(h, omega1, *args, **kwargs)
        if batch is None or len(amps) >= batch:
            amps[rows] = np.nan
        members = len(amps) // len(omega1)
        amps[max(0, len(amps) - riders * members):] = np.nan
        return amps

    monkeypatch.setattr(experiments, "propagate_batch_three", blow_up)


def count_mode_solves(monkeypatch):
    """A list that grows by one excitation per mode solved by a config's
    solves or by verify's residual oracle: every dispersion solve goes
    through solve_dispersion_batch."""
    from graphene_spp import config, validation

    calls = []
    for module in (config, validation):
        def counted(excitations, *args, _solve=module.solve_dispersion_batch,
                    **kwargs):
            excitations = tuple(excitations)
            calls.extend(excitations)
            return _solve(excitations, *args, **kwargs)

        monkeypatch.setattr(module, "solve_dispersion_batch", counted)
    return calls


@pytest.fixture(scope="session")
def default_config() -> RunConfig:
    return RunConfig()


@pytest.fixture(scope="session")
def default_mode(default_config):
    return default_config.solve_mode()


@pytest.fixture(scope="session")
def goldens() -> dict:
    with open(DATA_DIR / "goldens.json") as handle:
        return json.load(handle)


def continuous_device_finals(geom, mode, k0_convention="vacuum"):
    """Lossless amplitudes at x = +L/2 of the three-sheet device started in
    (1, 0, 0) at x = -L/2, by an adaptive DOP853 solve whose couplings are
    evaluated at the exact arc separations, not read from a schedule.
    Lengths are scaled to micrometres for the solver."""
    from scipy.integrate import solve_ivp

    from graphene_spp.coupling import coupling_at_separations

    radius = geom.radius * 1e6
    offset = geom.offset * 1e6
    base = geom.min_gap * 1e6 + radius

    def rhs(x_um, a):
        u = np.array([x_um - offset / 2.0, x_um + offset / 2.0])
        d_m = (base - np.sqrt(radius * radius - u * u)) * 1e-6
        c12, _ = coupling_at_separations(mode, d_m, k0_convention)
        w1, w2 = np.abs(c12.real) * 1e-6
        return np.array([-1j * w1 * a[1], -1j * (w1 * a[0] + w2 * a[2]),
                         -1j * w2 * a[1]])

    half = geom.length * 1e6 / 2.0
    sol = solve_ivp(rhs, (-half, half), np.array([1.0, 0.0, 0.0], complex),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[:, -1]
