"""Every public reader of kappa_bar, k_max and epsilon applies the package's
number rules (`errors.whole_array`, `errors.real_array`, one value through
`errors.scalar`), so a value is refused by name, never truncated or read
as something else.

`test_scalar_readers` is the table: each reader against the same bad
values, with the exact error type and message.  The guard below it walks
the public API, so a new entry point that takes one of these parameters
cannot skip the rule.  The scenario loader reads the same values by the
same rules, reporting the library's message under the field.
"""

import inspect
import math

import numpy as np
import pytest

import delaysync
from delaysync import (DelayProfile, choose_rho, choose_theta, dare_residual,
                       delay_admissible, design_protocol, parse_config,
                       simulate, solve_low_gain_dare)
from delaysync.config import config_to_dict
from delaysync.demos import _initial_states, demo_model, demo_scenario
from delaysync.errors import (DimensionError, ScenarioError, scalar,
                              whole_array)

from conftest import BENCH_A, BENCH_B, cycle3_graph


def _design_kappa_bar(value):
    d = design_protocol(demo_model("full"), value, epsilon=1e-3)
    return type(d.kappa_bar), d.kappa_bar, d.K.tolist()


def _design_epsilon(value):
    d = design_protocol(demo_model("full"), 2, epsilon=value)
    return d.epsilon_star, d.K.tolist()


def _simulate_k_max(value):
    d = design_protocol(demo_model("full"), 2, epsilon=1e-3)
    traj = simulate(d.model, d, cycle3_graph(), DelayProfile([1, 1, 2], 2),
                    _initial_states(3), [0.0, 1.0, 0.0], value)
    return traj.x.tolist()


def _dare_residual(value):
    P = solve_low_gain_dare(BENCH_A, BENCH_B, 1e-3).P
    return dare_residual(BENCH_A, BENCH_B, P, value)


#: (reader, parameter) -> a call that reads the value there, returning
#: what the value decides
READERS = {
    ("design_protocol", "kappa_bar"): _design_kappa_bar,
    ("design_protocol", "epsilon"): _design_epsilon,
    ("delay_admissible", "kappa_bar"): lambda v: delay_admissible(BENCH_A, v),
    ("choose_rho", "kappa_bar"): lambda v: choose_rho(v, math.pi / 6),
    ("choose_theta", "kappa_bar"): lambda v: choose_theta(1.05, v,
                                                          math.pi / 6),
    ("DelayProfile", "kappa_bar"): lambda v: DelayProfile(
        [1, 2], kappa_bar=v).kappa_bar,
    ("simulate", "k_max"): _simulate_k_max,
    ("solve_low_gain_dare", "epsilon"): lambda v: solve_low_gain_dare(
        BENCH_A, BENCH_B, v).P.tolist(),
    ("dare_residual", "epsilon"): _dare_residual,
}

BAD_VALUES = (2.5, True, "2", -1, [2])

READER_IDS = [f"{reader}.{param}" for reader, param in READERS]


def _shared_rule(param, value):
    """(type, message) of the number rule every reader of `param` shares,
    or None where the epsilon range decides."""
    if value is True or value == "2":
        return ScenarioError, f"non-numeric or boolean {param}: {value!r}"
    if value == [2]:
        return (DimensionError,
                f"{param} must be a single number, got shape (1,)")
    if param == "epsilon":  # a real number: 2.5 and -1 pass the rule
        return None
    if value == -1:
        return ScenarioError, f"negative {param}: -1"
    return ScenarioError, f"non-integer {param}: 2.5"


#: the one epsilon range, applied by every epsilon reader but
#: `dare_residual`, which reads any real weight (a residual is defined for
#: each): (type, message) for a real number outside (0, 1], read as a float
EPSILON_RANGE = ScenarioError, "epsilon must be in (0, 1], got {}"


def _expected(param, value):
    """(type, message) of a range-checking reader of `param` for `value`."""
    if (shared := _shared_rule(param, value)) is not None:
        return shared
    kind, message = EPSILON_RANGE
    return kind, message.format(float(value))


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("reader, param", READERS, ids=READER_IDS)
def test_scalar_readers(reader, param, value):
    if reader == "dare_residual" and _shared_rule(param, value) is None:
        assert np.isfinite(READERS[reader, param](value))
        return
    expected = _expected(param, value)
    with pytest.raises(Exception) as err:
        READERS[reader, param](value)
    assert (type(err.value), str(err.value)) == expected


@pytest.mark.parametrize("reader, param", READERS, ids=READER_IDS)
def test_good_values_read_alike(reader, param):
    # a whole float and a numpy scalar read as the Python number they equal
    read = READERS[reader, param]
    if param == "epsilon":
        assert read(np.float64(1e-3)) == read(1e-3)
    else:
        assert read(2.0) == read(np.int64(2)) == read(2)


#: scenario field -> (the library parameter read there, the label the
#: loader reports it under: delays are read whole by `DelayProfile`)
LOADED = {"sim.k_max": ("k_max", "sim.k_max"),
          "delays.kappa_bar": ("kappa_bar", "delays"),
          "protocol.epsilon": ("epsilon", "protocol.epsilon")}


def _load(field, value):
    """demo 1's scenario, with `value` at `field`, through the loader."""
    data = config_to_dict(demo_scenario(1, "full"))
    section, key = field.split(".")
    data[section][key] = value
    return parse_config(data)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("field", LOADED)
def test_loader_reports_the_library_message(field, value):
    param, label = LOADED[field]
    _, message = _expected(param, value)
    with pytest.raises(ScenarioError) as err:
        _load(field, value)
    assert err.value.problems == [f"{label}: {message}"]


@pytest.mark.parametrize("field, whole", [("sim.k_max", 12),
                                          ("delays.kappa_bar", 2)])
def test_loader_reads_whole_floats_as_ints(field, whole):
    cfg = _load(field, float(whole))
    read = cfg.k_max if field == "sim.k_max" else cfg.delays.kappa_bar
    assert type(read) is int and read == whole


def test_loader_keeps_its_horizon_floor():
    # the one rule a file adds to simulate's: at least 10 steps
    with pytest.raises(ScenarioError) as err:
        _load("sim.k_max", 9.0)
    assert err.value.problems == ["sim.k_max: must be at least 10, got 9"]


@pytest.mark.parametrize("kind", [np.int8, np.int16, np.int32, np.int64])
def test_signed_integers_read_as_int64(kind):
    # read as they are, without the float round trip: the same int64 values
    # as Python ints, numpy scalars and arrays, up to the type's extremes
    top = int(np.iinfo(kind).max)
    values = [0, 2, top]
    read = whole_array(np.array(values, dtype=kind), "k")
    assert read.dtype == np.int64 and read.tolist() == values
    for value in values:
        for given in (value, kind(value), np.array(value, dtype=kind)):
            number = scalar(given, "k", whole_array)
            assert type(number) is int and number == value
    bottom = int(np.iinfo(kind).min)
    with pytest.raises(ScenarioError) as err:
        whole_array(np.array([3, bottom], dtype=kind), "k")
    assert str(err.value) == f"negative k: entry 1 is {bottom}"
    for given in (bottom, kind(bottom), np.array(bottom, dtype=kind)):
        with pytest.raises(ScenarioError) as err:
            scalar(given, "k", whole_array)
        assert str(err.value) == f"negative k: {bottom}"


def test_floats_keep_the_round_trip():
    assert scalar(2.0, "k", whole_array) == 2
    assert type(scalar(2.0, "k", whole_array)) is int
    with pytest.raises(ScenarioError) as err:
        scalar(2.5, "k", whole_array)
    assert str(err.value) == "non-integer k: 2.5"


#: records whose fields carry these names: their values come from a design,
#: a solve, or (ScenarioConfig) the loader, which applies the rules above
RECORDS = ("DareSolution", "ProtocolDesign", "ScenarioConfig")
SCALAR_PARAMETERS = {"kappa_bar", "k_max", "epsilon"}


def _scalar_parameters(name):
    signature = inspect.signature(getattr(delaysync, name))
    return SCALAR_PARAMETERS.intersection(signature.parameters)


def test_every_reader_is_in_the_table():
    names = set(delaysync.__all__) | {"DelayProfile"}
    found = {(name, param) for name in names - set(RECORDS)
             if callable(getattr(delaysync, name))
             for param in _scalar_parameters(name)}
    assert found == set(READERS)


@pytest.mark.parametrize("record", RECORDS)
def test_exempt_records_hold_these_fields(record):
    # an exemption that no longer names such a field is stale
    assert record in delaysync.__all__ and _scalar_parameters(record)
